package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"
)

// Error classification: the retry machinery only re-executes failures
// that a retry can plausibly cure. The rules, in precedence order:
//
//  1. cancellation and deadline expiry are permanent — retrying against
//     a dead context only delays the inevitable;
//  2. an explicit mark (MarkTransient, MarkCorrupt) wins;
//  3. errors that declare themselves via a Transient() bool method
//     (including InjectedError) are believed;
//  4. OS-level timeouts are transient;
//  5. everything else is permanent — unknown failures (bad specs, logic
//     errors, panics) must surface, not spin.

// transientError carries MarkTransient's mark.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// MarkTransient marks err retryable. nil stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// transienter is the self-classification interface (errors carry their
// own retry semantics through wrapping).
type transienter interface {
	Transient() bool
}

// CorruptionError marks a decode/checksum failure of data that was read
// back intact at the transport level: the bytes arrived, and they are
// wrong. Retrying re-reads the same bad bytes, so corruption is
// permanent — the caller must fall through to recompute (and quarantine
// the artifact) instead of burning the backoff budget first.
type CorruptionError struct{ err error }

func (e *CorruptionError) Error() string { return "corrupt: " + e.err.Error() }
func (e *CorruptionError) Unwrap() error { return e.err }

// Transient reports false: re-reading corrupt bytes cannot cure them.
func (e *CorruptionError) Transient() bool { return false }

// MarkCorrupt wraps err as a CorruptionError (permanent). nil stays nil.
func MarkCorrupt(err error) error {
	if err == nil {
		return nil
	}
	return &CorruptionError{err: err}
}

// netTimeoutError wraps a transport-level timeout as transient with the
// underlying chain deliberately severed (no Unwrap): Go's HTTP client
// reports its own per-request timeout via context.DeadlineExceeded,
// which rule 1 would otherwise read as the caller's context dying and
// refuse to retry. A genuinely dead caller context still stops the
// retry loop — the backoff wait is abandoned.
type netTimeoutError struct{ err error }

func (e *netTimeoutError) Error() string   { return e.err.Error() }
func (e *netTimeoutError) Transient() bool { return true }
func (e *netTimeoutError) Timeout() bool   { return true }

// ClassifyNetErr marks err transient when it looks like a recoverable
// network-transport failure — a timeout, a connection reset, refused or
// torn mid-response — and returns it unchanged otherwise. Errors that
// already classify themselves (a Transient() method anywhere in the
// chain, including an earlier Mark*) are left alone: the explicit mark
// wins. Exchange applies it to every fleet HTTP edge: the peer being
// momentarily unreachable must cost a retry, never correctness.
func ClassifyNetErr(err error) error {
	if err == nil {
		return nil
	}
	var t transienter
	if errors.As(err, &t) {
		return err
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &netTimeoutError{err: err}
	}
	switch {
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.EOF):
		// io.EOF from an HTTP round trip is the server closing the
		// connection mid-exchange — the retryable shape of a restart.
		return MarkTransient(err)
	}
	return err
}

// IsTransient reports whether err should be retried.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	return false
}

// RetryPolicy is a capped exponential backoff with deterministic jitter.
// The zero value means the defaults; WithDefaults resolves them.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3; values < 1 mean 1 — no retries).
	MaxAttempts int
	// BaseDelay is the delay after the first failed attempt (default
	// 25ms); each further failure multiplies it by Multiplier (default
	// 2), capped at MaxDelay (default 2s).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the fraction of the delay randomised away (0 = none):
	// the delay after attempt n is d*(1 - Jitter*u) for a deterministic
	// u in [0, 1) derived from (Seed, key, n), so retry schedules are
	// reproducible under a fixed seed yet decorrelated across jobs.
	// Out-of-range values clamp to [0, 1].
	Jitter float64
	// Seed drives the deterministic jitter.
	Seed uint64
}

// WithDefaults resolves zero fields to the documented defaults.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Delay returns the backoff before attempt+1, for the attempt-th failed
// attempt (1-based). key decorrelates concurrent jobs (e.g. a hash of
// the job identity).
func (p RetryPolicy) Delay(attempt int, key uint64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		u := float64(mix(p.Seed^mix(key^uint64(attempt)))>>11) / (1 << 53)
		d *= 1 - p.Jitter*u
	}
	return time.Duration(d)
}

// sleepCtx sleeps for d or until ctx is done, returning ctx's error in
// the latter case — the interruptible backoff wait (a Cancel during
// retry backoff lands here).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry runs fn under the policy, passing it the 1-based attempt
// number: transient failures are retried after the backoff delay,
// permanent failures and context expiry return immediately. between,
// when non-nil, runs after a transient failure that will be retried and
// before its backoff wait — where a caller publishes "attempt n failed
// with err, retrying" to whoever polls it. Retry returns the number of
// attempts made and the final error (nil on success).
func Retry(ctx context.Context, p RetryPolicy, key uint64, fn func(attempt int) error, between func(attempt int, err error)) (attempts int, err error) {
	p = p.WithDefaults()
	for {
		attempts++
		err = fn(attempts)
		if err == nil || !IsTransient(err) || attempts >= p.MaxAttempts {
			return attempts, err
		}
		if between != nil {
			between(attempts, err)
		}
		if werr := sleepCtx(ctx, p.Delay(attempts, key)); werr != nil {
			return attempts, fmt.Errorf("resilience: retry abandoned after %d attempts: %w", attempts, werr)
		}
	}
}
