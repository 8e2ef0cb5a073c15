package store

import (
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"airshed/internal/resilience"
)

// fastRetry is a test policy: real retries, negligible backoff.
func fastRetry(attempts int) resilience.RetryPolicy {
	return resilience.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: 0.5, Seed: 42}.WithDefaults()
}

func withInjector(t *testing.T, in *resilience.Injector) {
	t.Helper()
	resilience.Enable(in)
	t.Cleanup(resilience.Disable)
}

// TestHTTPBackendRetriesInjectedFaults pins the transient-outage shape:
// the first attempts at fleet.blob.put / fleet.blob.get fail injected,
// the retry loop absorbs them, and the operation succeeds without the
// worker-side breaker ever noticing.
func TestHTTPBackendRetriesInjectedFaults(t *testing.T) {
	coord, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewBlobServer(coord))
	defer srv.Close()

	backend := NewHTTPBackend(srv.URL, srv.Client())
	backend.retry = fastRetry(3)
	worker, err := OpenBackend(backend, 0)
	if err != nil {
		t.Fatal(err)
	}

	in := resilience.New(7)
	in.SetLimited(resilience.PointFleetBlobPut, 1, 2) // fail the first 2 put attempts, then recover
	in.SetLimited(resilience.PointFleetBlobGet, 1, 2)
	withInjector(t, in)

	res := testResult(t)
	if err := worker.PutResult("rr01", res); err != nil {
		t.Fatalf("put through injected faults: %v", err)
	}
	if fired := in.Fired(resilience.PointFleetBlobPut); fired != 2 {
		t.Errorf("put faults fired = %d, want 2", fired)
	}
	back, ok := worker.GetResult("rr01")
	if !ok || !reflect.DeepEqual(res.Final, back.Final) {
		t.Fatal("get through injected faults did not return the stored result")
	}
	if fired := in.Fired(resilience.PointFleetBlobGet); fired != 2 {
		t.Errorf("get faults fired = %d, want 2", fired)
	}
	if worker.Degraded() {
		t.Error("retried-and-recovered faults tripped the breaker")
	}
	if c := worker.Counters(); c.Faults != 0 {
		t.Errorf("recovered faults booked as store faults: %+v", c)
	}
}

// TestHTTPBackendBenign404NeverScoresBreaker pins the miss contract
// under fire: even with transport faults injected around it, a lookup
// that ends in a firm 404 is a miss — fs.ErrNotExist, not retried
// further, and never scored against the circuit breaker.
func TestHTTPBackendBenign404NeverScoresBreaker(t *testing.T) {
	coord, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewBlobServer(coord))
	defer srv.Close()

	backend := NewHTTPBackend(srv.URL, srv.Client())
	backend.retry = fastRetry(4)
	worker, err := OpenBackend(backend, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A breaker so touchy that a single scored failure would degrade it.
	worker.SetBreaker(resilience.NewBreaker(1, time.Hour))

	in := resilience.New(1)
	withInjector(t, in)

	for i := 0; i < 20; i++ {
		// Each lookup eats exactly 2 injected transport faults before the
		// firm 404 lands on attempt 3 — deterministic, inside the retry
		// budget, so every lookup resolves as a miss, never a fault.
		in.SetLimited(resilience.PointFleetBlobGet, 1, uint64(2*(i+1)))
		if _, ok := worker.GetResult("absent"); ok {
			t.Fatal("missing result served")
		}
	}
	if worker.Degraded() {
		t.Fatal("benign 404 misses under transport faults tripped the breaker")
	}
	c := worker.Counters()
	if c.Misses != 20 || c.Faults != 0 {
		t.Errorf("counters after 20 faulty misses: %+v", c)
	}
	if in.Fired(resilience.PointFleetBlobGet) == 0 {
		t.Error("injector never fired — the test exercised nothing")
	}

	// The raw backend error is the firm miss, not the transient wrapper.
	if _, err := backend.Get("results/0000.res"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("miss error = %v, want fs.ErrNotExist", err)
	} else if resilience.IsTransient(err) {
		t.Error("404 classified transient — would spin the retry loop")
	}
}

// TestHTTPBackendClassifiesTransportErrors pins ClassifyNetErr at the
// HTTP edge: connection refused and client timeouts come back marked
// transient (retryable), as do 5xx answers; firm 4xx stays permanent.
func TestHTTPBackendClassifiesTransportErrors(t *testing.T) {
	// Connection refused: a server that is already gone.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	b := NewHTTPBackend(deadURL, nil)
	b.retry = fastRetry(1)
	if _, err := b.Get("results/aa.res"); err == nil || !resilience.IsTransient(err) {
		t.Errorf("connection refused not transient: %v", err)
	}
	if err := b.Put("results/aa.res", []byte("x")); err == nil || !resilience.IsTransient(err) {
		t.Errorf("put to dead server not transient: %v", err)
	}

	// Client-side timeout against a server that never answers.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer slow.Close()
	bt := NewHTTPBackend(slow.URL, &http.Client{Timeout: 50 * time.Millisecond})
	bt.retry = fastRetry(1)
	if _, err := bt.Get("results/aa.res"); err == nil || !resilience.IsTransient(err) {
		t.Errorf("timeout not transient: %v", err)
	}

	// Server-side failure codes: 5xx transient, 4xx (non-404) permanent.
	codes := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/fleet/blobs/results/5xx.res":
			w.WriteHeader(http.StatusBadGateway)
		default:
			w.WriteHeader(http.StatusForbidden)
		}
	}))
	defer codes.Close()
	bc := NewHTTPBackend(codes.URL, codes.Client())
	bc.retry = fastRetry(1)
	if _, err := bc.Get("results/5xx.res"); err == nil || !resilience.IsTransient(err) {
		t.Errorf("502 not transient: %v", err)
	}
	if _, err := bc.Get("results/no.res"); err == nil || resilience.IsTransient(err) {
		t.Errorf("403 classified transient: %v", err)
	}
}
