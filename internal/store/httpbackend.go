package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strings"
	"time"

	"airshed/internal/resilience"
)

// HTTPBackend is the remote blob backend of fleet mode: a client for the
// coordinator's /v1/fleet/blobs endpoints, through which every worker
// reads and writes the coordinator's store. It is Shared — the Store on
// top keeps no local index and never garbage-collects (the coordinator
// owns eviction), so a blob another worker stored a millisecond ago is
// immediately visible here.
//
// Network faults cost latency, never correctness: every call is one
// resilience.Exchange (which classifies transport errors, 5xx/429 and
// the fleet.blob.* injection points as transient), and get/put retry
// those under a capped exponential backoff with deterministic per-key
// jitter. Retrying a Put is safe because blobs are content-addressed:
// both writers carry identical bytes.
//
// Error mapping follows the Backend contract: HTTP 404 becomes
// fs.ErrNotExist (a benign miss the breaker ignores, returned without
// retrying — absence is an answer, not a fault), anything that outlives
// the retries surfaces as a real I/O error and counts against the
// Store's circuit breaker, so a worker whose coordinator vanishes
// degrades to compute-only instead of stalling on every lookup.
type HTTPBackend struct {
	base   string
	client *http.Client
	retry  resilience.RetryPolicy
}

// NewHTTPBackend creates a backend talking to the coordinator at base
// (e.g. "http://coordinator:8080"). A nil client gets a modest default
// timeout — blob payloads are small (kilobytes to a few megabytes).
func NewHTTPBackend(base string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPBackend{
		base:   strings.TrimRight(base, "/"),
		client: client,
		retry:  resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.5},
	}
}

// Shared implements Backend: the coordinator's store is multi-writer.
func (b *HTTPBackend) Shared() bool { return true }

func (b *HTTPBackend) url(key string) string {
	return b.base + BlobPathPrefix + "/" + key
}

// Put implements Backend.
func (b *HTTPBackend) Put(key string, data []byte) error {
	_, err := resilience.Retry(context.Background(), b.retry, resilience.HashKey("put:"+key), func(int) error {
		return b.exchange("putting "+key, resilience.Exchange{
			Point: resilience.PointFleetBlobPut, Method: http.MethodPut, URL: b.url(key), Body: data})
	}, nil)
	return err
}

// Get implements Backend.
func (b *HTTPBackend) Get(key string) ([]byte, error) {
	var data []byte
	_, err := resilience.Retry(context.Background(), b.retry, resilience.HashKey("get:"+key), func(int) error {
		// A 404 is a firm answer, not a fault: permanent, so the retry
		// loop stops, and never scored against the breaker above.
		return b.exchange("getting "+key, resilience.Exchange{
			Point: resilience.PointFleetBlobGet, Method: http.MethodGet, URL: b.url(key),
			Firm: notFound, Raw: &data, MaxBody: maxPayload})
	}, nil)
	return data, err
}

// Quarantine implements Quarantiner by asking the coordinator to move
// the blob aside (POST on the blob key): a worker that detected
// corruption in fetched bytes routes the quarantine to the one store
// that owns those bytes instead of deleting them.
func (b *HTTPBackend) Quarantine(key string) error {
	return b.exchange("quarantining "+key, resilience.Exchange{Method: http.MethodPost, URL: b.url(key)})
}

// QuarantineCount implements Quarantiner. The coordinator owns the
// quarantine area and reports its size in its own counters; a worker's
// view is always 0 rather than a per-heartbeat network round trip.
func (b *HTTPBackend) QuarantineCount() int { return 0 }

// Delete implements Backend; deleting an absent blob succeeds.
func (b *HTTPBackend) Delete(key string) error {
	err := b.exchange("deleting "+key, resilience.Exchange{Method: http.MethodDelete, URL: b.url(key), Firm: notFound})
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// List implements Backend.
func (b *HTTPBackend) List() ([]BlobInfo, error) {
	var out []BlobInfo
	if err := b.exchange("listing blobs", resilience.Exchange{Method: http.MethodGet, URL: b.base + BlobPathPrefix, Into: &out}); err != nil {
		return nil, err
	}
	return out, nil
}

// notFound is the Firm list of the exchanges for which absence is an
// answer.
var notFound = []int{http.StatusNotFound}

// exchange runs one exchange with the coordinator, naming the operation
// in any error; a 404 the exchange lists as firm becomes fs.ErrNotExist
// per the Backend contract.
func (b *HTTPBackend) exchange(op string, x resilience.Exchange) error {
	status, err := x.Do(context.Background(), b.client)
	if err == nil && status == http.StatusNotFound {
		err = fs.ErrNotExist
	}
	if err != nil {
		return fmt.Errorf("store: %s: %w", op, err)
	}
	return nil
}
