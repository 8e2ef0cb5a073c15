package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestInjectorDeterministicAndRateBound(t *testing.T) {
	const calls = 10000
	const rate = 0.1
	fire := func() int {
		in := New(42).Set(PointStoreRead, rate)
		n := 0
		for i := 0; i < calls; i++ {
			if in.fire(PointStoreRead) != nil {
				n++
			}
		}
		return n
	}
	a, b := fire(), fire()
	if a != b {
		t.Fatalf("same seed fired %d then %d faults", a, b)
	}
	got := float64(a) / calls
	if math.Abs(got-rate) > 0.02 {
		t.Fatalf("fire rate %.3f, want ~%.2f", got, rate)
	}
	// A different seed fires a different pattern (overwhelmingly likely).
	in1 := New(1).Set(PointStoreRead, rate)
	in2 := New(2).Set(PointStoreRead, rate)
	same := true
	for i := 0; i < 1000; i++ {
		if (in1.fire(PointStoreRead) != nil) != (in2.fire(PointStoreRead) != nil) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault patterns")
	}
}

func TestInjectorDisabledFiresNothing(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() after Disable")
	}
	for i := 0; i < 100; i++ {
		if err := Fire(PointSchedExec); err != nil {
			t.Fatalf("disabled Fire returned %v", err)
		}
	}
}

func TestInjectorGlobalEnableDisable(t *testing.T) {
	in := New(7).Set(PointSchedExec, 1)
	Enable(in)
	defer Disable()
	err := Fire(PointSchedExec)
	if err == nil {
		t.Fatal("rate-1 point did not fire")
	}
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Point != PointSchedExec {
		t.Fatalf("fired %v, want InjectedError at %s", err, PointSchedExec)
	}
	if !IsTransient(err) {
		t.Fatal("injected faults must classify transient")
	}
	// Unconfigured points stay silent.
	if err := Fire(PointHourRead); err != nil {
		t.Fatalf("unconfigured point fired %v", err)
	}
	Disable()
	if err := Fire(PointSchedExec); err != nil {
		t.Fatalf("Fire after Disable returned %v", err)
	}
	if in.Calls(PointSchedExec) != 1 || in.Fired(PointSchedExec) != 1 {
		t.Fatalf("calls/fired = %d/%d, want 1/1", in.Calls(PointSchedExec), in.Fired(PointSchedExec))
	}
}

func TestInjectorLimitStopsFiring(t *testing.T) {
	in := New(3).SetLimited(PointStoreWrite, 1, 2)
	fired := 0
	for i := 0; i < 10; i++ {
		if in.fire(PointStoreWrite) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("limited point fired %d times, want 2", fired)
	}
}

// TestInjectorLimitConcurrent hammers a capped point from many
// goroutines: the cap is enforced with a CAS, so the total number of
// faults handed out (and the Fired counter) must land exactly on the
// limit, never past it.
func TestInjectorLimitConcurrent(t *testing.T) {
	const limit, goroutines, calls = 5, 16, 200
	in := New(11).SetLimited(PointStoreRead, 1, limit)
	var fired atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if in.fire(PointStoreRead) != nil {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if fired.Load() != limit {
		t.Fatalf("capped point handed out %d faults, want exactly %d", fired.Load(), limit)
	}
	if in.Fired(PointStoreRead) != limit {
		t.Fatalf("Fired = %d, want %d", in.Fired(PointStoreRead), limit)
	}
}

func TestInjectorArmedPanic(t *testing.T) {
	in := New(1).ArmPanic(PointFxChunk)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("armed point did not panic")
			}
			if _, ok := r.(InjectedPanic); !ok {
				t.Fatalf("panicked with %T, want InjectedPanic", r)
			}
		}()
		_ = in.fire(PointFxChunk)
	}()
	// Armed once only.
	if err := in.fire(PointFxChunk); err != nil {
		t.Fatalf("second call fired %v, want nil", err)
	}
}

func TestClassification(t *testing.T) {
	base := errors.New("disk on fire")
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"unknown", base, false},
		{"marked transient", MarkTransient(base), true},
		{"marked corrupt", MarkCorrupt(base), false},
		{"wrapped transient", fmt.Errorf("hour 3: %w", MarkTransient(base)), true},
		{"injected", &InjectedError{Point: "x", Call: 1}, true},
		{"wrapped injected", fmt.Errorf("store: %w", &InjectedError{Point: "x"}), true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"canceled inside transient", MarkTransient(fmt.Errorf("run: %w", context.Canceled)), false},
		{"panic", NewPanicError("boom", nil), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetryPolicyDelays(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2, Jitter: 0}.WithDefaults()
	if d := p.Delay(1, 0); d != 10*time.Millisecond {
		t.Fatalf("Delay(1) = %v, want 10ms", d)
	}
	if d := p.Delay(2, 0); d != 20*time.Millisecond {
		t.Fatalf("Delay(2) = %v, want 20ms", d)
	}
	if d := p.Delay(4, 0); d != 50*time.Millisecond {
		t.Fatalf("Delay(4) = %v, want the 50ms cap", d)
	}
	// Deterministic jitter: same (seed, key, attempt) -> same delay.
	pj := RetryPolicy{BaseDelay: 10 * time.Millisecond, Jitter: 0.5, Seed: 9}.WithDefaults()
	if pj.Delay(2, 123) != pj.Delay(2, 123) {
		t.Fatal("jittered delay is not deterministic")
	}
	if pj.Delay(2, 123) == pj.Delay(2, 456) {
		t.Fatal("jitter does not vary with key")
	}
	if d := pj.Delay(2, 123); d <= 0 || d > 20*time.Millisecond {
		t.Fatalf("jittered Delay(2) = %v, want in (0, 20ms]", d)
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: 0}
	var seen, between []int
	attempts, err := Retry(context.Background(), p, 1, func(attempt int) error {
		seen = append(seen, attempt)
		if attempt < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	}, func(attempt int, err error) {
		if !IsTransient(err) {
			t.Errorf("between(%d) got %v, want the transient failure", attempt, err)
		}
		between = append(between, attempt)
	})
	if err != nil || attempts != 3 {
		t.Fatalf("Retry = (%d, %v), want (3, nil)", attempts, err)
	}
	// fn sees 1-based attempt numbers; between runs once per failure that
	// is retried, never after the final attempt.
	if fmt.Sprint(seen) != "[1 2 3]" || fmt.Sprint(between) != "[1 2]" {
		t.Fatalf("fn saw attempts %v, between %v; want [1 2 3] and [1 2]", seen, between)
	}
}

func TestRetryPermanentFailsFast(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	boom := errors.New("bad spec")
	attempts, err := Retry(context.Background(), p, 1, func(int) error { return boom }, nil)
	if !errors.Is(err, boom) || attempts != 1 {
		t.Fatalf("Retry = (%d, %v), want (1, %v)", attempts, err, boom)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: 0}
	flaky := MarkTransient(errors.New("still flaky"))
	attempts, err := Retry(context.Background(), p, 1, func(int) error { return flaky }, nil)
	if !errors.Is(err, flaky) || attempts != 3 {
		t.Fatalf("Retry = (%d, %v), want (3, %v)", attempts, err, flaky)
	}
}

func TestRetryCancelledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Second, Jitter: 0}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	attempts, err := Retry(ctx, p, 1, func(int) error { return MarkTransient(errors.New("flaky")) }, nil)
	if attempts != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("Retry = (%d, %v), want (1, canceled)", attempts, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v to interrupt the backoff", elapsed)
	}
}

func TestPanicErrorPermanentAndDescriptive(t *testing.T) {
	err := NewPanicError("index out of range", []byte("stack"))
	if IsTransient(err) {
		t.Fatal("PanicError must be permanent")
	}
	var pe *PanicError
	if !errors.As(fmt.Errorf("job: %w", err), &pe) || string(pe.Stack) != "stack" {
		t.Fatalf("PanicError did not survive wrapping: %v", err)
	}
}
