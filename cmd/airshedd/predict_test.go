package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"airshed/internal/sched"
)

// GET /v1/predict is a consumer of the scheduler's physics resolution:
// these tests pin which predictions cost a job, which cost nothing, and
// that the answer does not depend on where the work trace came from.

func predict(t *testing.T, ts *httptest.Server, query string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/predict?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// mustPredict requires a 200 and reports how many jobs the prediction
// submitted and completed.
func mustPredict(t *testing.T, ts *httptest.Server, s *sched.Scheduler, query string) (body []byte, submitted, completed uint64) {
	t.Helper()
	before := s.Counters()
	code, _, body := predict(t, ts, query)
	if code != http.StatusOK {
		t.Fatalf("predict %s: HTTP %d %s", query, code, body)
	}
	after := s.Counters()
	return body, after.Submitted - before.Submitted, after.Completed - before.Completed
}

const paragon64 = "dataset=mini&machine=paragon&nodes=64&hours=1"

func TestPredictRunsUnheldPhysicsAsOneJob(t *testing.T) {
	ts, s := testServer(t, sched.Options{})
	first, submitted, completed := mustPredict(t, ts, s, "dataset=mini&machine=t3e&nodes=16&hours=1")
	if submitted != 1 || completed != 1 {
		t.Errorf("first prediction of un-held physics: %d submitted, %d completed, want 1 and 1", submitted, completed)
	}
	if _, submitted, completed = mustPredict(t, ts, s, paragon64); submitted != 0 || completed != 0 {
		t.Errorf("second prediction, other machine and node count: %d submitted, %d completed, want none", submitted, completed)
	}
	// The trace now comes from the cached result instead of the awaited job.
	if again, _, _ := mustPredict(t, ts, s, "dataset=mini&machine=t3e&nodes=16&hours=1"); !bytes.Equal(again, first) {
		t.Errorf("prediction changed with the source of its trace:\n%s\n%s", first, again)
	}
}

// A run of some machine and node count leaves everything a prediction of
// its physics needs: in the result cache, and — across a restart — in the
// store's hour records. Whatever supplied the trace, the bytes agree.
func TestPredictAfterRunSubmitsNothing(t *testing.T) {
	fresh, fs := testServer(t, sched.Options{})
	want, _, _ := mustPredict(t, fresh, fs, paragon64) // traced by its own job

	for _, stored := range []bool{false, true} {
		name := map[bool]string{false: "store-less", true: "store-backed"}[stored]
		dir := t.TempDir()
		open := func() (*httptest.Server, *sched.Scheduler) { return testServer(t, sched.Options{}) }
		if stored {
			open = func() (*httptest.Server, *sched.Scheduler) { return storeServer(t, dir) }
		}
		ts, s := open()
		run, code := postRun(t, ts, miniBody(4))
		if code != http.StatusAccepted || waitDone(t, ts, run.ID).State != "done" {
			t.Fatalf("%s: t3e/4 run did not finish (HTTP %d)", name, code)
		}
		got, submitted, _ := mustPredict(t, ts, s, paragon64)
		if submitted != 0 {
			t.Errorf("%s: prediction after a run of the same physics submitted %d jobs", name, submitted)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: prediction from the run's cached trace differs:\n%s\n%s", name, want, got)
		}
		if !stored {
			continue
		}

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		ts2, s2 := open()
		st := s2.Store()
		before := st.Counters()
		got, submitted, _ = mustPredict(t, ts2, s2, paragon64)
		reads := st.Counters()
		if submitted != 0 {
			t.Errorf("restart: prediction submitted %d jobs, want the stored hour records stitched", submitted)
		}
		// One mini hour is one record; no result or checkpoint lookup.
		if reads.Hits-before.Hits != 1 || reads.Misses != before.Misses {
			t.Errorf("restart: prediction cost %d store hits and %d misses, want 1 and 0",
				reads.Hits-before.Hits, reads.Misses-before.Misses)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("restart: prediction from stored records differs:\n%s\n%s", want, got)
		}
	}
}

func TestConcurrentFirstPredictionsRunOneJob(t *testing.T) {
	ts, s := testServer(t, sched.Options{})
	var wg sync.WaitGroup
	for i, m := range []string{"t3e", "t3d", "paragon", "gohost", "t3e", "t3d", "paragon", "gohost"} {
		wg.Add(1)
		go func(query string) {
			defer wg.Done()
			if code, _, body := predict(t, ts, query); code != http.StatusOK {
				t.Errorf("predict %s: HTTP %d %s", query, code, body)
			}
		}(fmt.Sprintf("dataset=mini&machine=%s&nodes=%d&hours=1", m, 4<<i))
	}
	wg.Wait()
	// Late arrivals may find the finished job's result instead of the job.
	if c := s.Counters(); c.Completed != 1 || c.CacheMisses != 1 || c.Submitted != 1+c.Coalesced {
		t.Errorf("8 first predictions of one physics: %+v, want one job", c)
	}
}

func TestPredictQueueFullReturns429(t *testing.T) {
	ts, _ := testServer(t, sched.Options{Workers: 1, QueueDepth: 1})
	// Eight hours keep the worker busy well past the requests below.
	first, _ := postRun(t, ts, `{"dataset":"mini","machine":"t3e","nodes":2,"hours":8}`)
	for deadline := time.Now().Add(30 * time.Second); getStatus(t, ts, first.ID).State == "queued"; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job stuck in queue")
		}
	}
	if _, code := postRun(t, ts, miniBody(3)); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}

	// Un-held physics needs a job, and the queue has no room for one.
	code, hdr, body := predict(t, ts, "dataset=mini&machine=t3e&nodes=16&hours=1&nox_scale=0.9")
	if code != http.StatusTooManyRequests {
		t.Fatalf("predict against a full queue: HTTP %d %s, want 429", code, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewBufferString(miniBody(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	runBody, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != code || !bytes.Equal(runBody, body) || resp.Header.Get("Retry-After") == "" {
		t.Errorf("POST /v1/runs refuses with %d %s, /v1/predict with %d %s", resp.StatusCode, runBody, code, body)
	}
}

// A client that gives up does not take the job with it: the handler
// returns while the run is still in flight, the run finishes, and the next
// prediction of that physics finds it cached.
func TestPredictClientDisconnect(t *testing.T) {
	s := sched.New(sched.Options{Workers: 1})
	defer s.Shutdown(context.Background())
	h := newServer(s, nil, false, nil, "").handler()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/predict?dataset=mini&machine=t3e&nodes=16&hours=4", nil).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), req)
		close(returned)
	}()
	for deadline := time.Now().Add(30 * time.Second); s.Counters().Submitted == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("prediction never submitted its job")
		}
	}
	cancel()
	<-returned
	if c := s.Counters(); c.Completed != 0 || c.Cancelled != 0 {
		t.Fatalf("handler outlived its client, or took the job with it: %+v", c)
	}
	for deadline := time.Now().Add(2 * time.Minute); s.Counters().Completed == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned job never finished: %+v", s.Counters())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/predict?dataset=mini&machine=paragon&nodes=8&hours=4", nil))
	if c := s.Counters(); rec.Code != http.StatusOK || c.Submitted != 1 {
		t.Errorf("prediction after the abandoned job: HTTP %d, counters %+v, want 200 and no second job", rec.Code, c)
	}
}

func TestPredictionsStayInsideTheCacheBound(t *testing.T) {
	const entries = 2
	ts, s := testServer(t, sched.Options{CacheEntries: entries})
	for i := 0; i < 3*entries; i++ {
		mustPredict(t, ts, s, fmt.Sprintf("dataset=mini&machine=t3e&nodes=16&hours=1&nox_scale=0.%d", 4+i))
	}
	if c := s.Counters(); c.CacheEntries > entries || c.Completed != 3*entries {
		t.Errorf("%d distinct physics predicted: %d cache entries (cap %d), %d jobs", 3*entries, c.CacheEntries, entries, c.Completed)
	}
}
