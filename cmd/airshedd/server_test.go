package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"airshed/internal/resilience"
	"airshed/internal/sched"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

// testServer spins a scheduler and an httptest server around the daemon
// handler; the returned scheduler lets tests drive shutdown directly
// (the SIGTERM path minus the signal plumbing).
func testServer(t *testing.T, opts sched.Options) (*httptest.Server, *sched.Scheduler) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	scheduler := sched.New(opts)
	ts := httptest.NewServer(newServer(scheduler, opts.Store, true, nil, "").handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		scheduler.Shutdown(ctx)
	})
	return ts, scheduler
}

func miniBody(nodes int) string {
	return fmt.Sprintf(`{"dataset":"mini","machine":"t3e","nodes":%d,"hours":1}`, nodes)
}

func postRun(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var sr submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("bad submit response %q: %v", raw, err)
		}
	}
	return sr, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/runs/%s: %d %s", id, resp.StatusCode, raw)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return statusResponse{}
}

// metric fetches /metrics and extracts one counter value.
func metric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, raw)
	return 0
}

// metricFloat is metric for gauges printed with %g.
func metricFloat(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, raw)
	return 0
}

// TestEndToEndRunAndCacheHit is the acceptance path: submit a mini run,
// poll to completion, resubmit the identical scenario and verify the
// cache hit through both the response and the /metrics counters.
func TestEndToEndRunAndCacheHit(t *testing.T) {
	ts, _ := testServer(t, sched.Options{})

	sr, code := postRun(t, ts, miniBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if sr.ID == "" || sr.Hash == "" || sr.Cached {
		t.Fatalf("bad submit response: %+v", sr)
	}
	st := waitDone(t, ts, sr.ID)
	if st.State != "done" {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Summary == nil || st.Summary.PeakO3 <= 0 || st.Summary.VirtualSeconds <= 0 {
		t.Fatalf("missing or empty summary: %+v", st.Summary)
	}
	if st.VirtualSeconds != st.Summary.VirtualSeconds {
		t.Errorf("virtual seconds disagree: %g vs %g", st.VirtualSeconds, st.Summary.VirtualSeconds)
	}

	// Identical resubmission: immediate 200, cached, same answer.
	sr2, code := postRun(t, ts, miniBody(2))
	if code != http.StatusOK || !sr2.Cached {
		t.Fatalf("resubmit: status %d cached=%v", code, sr2.Cached)
	}
	st2 := getStatus(t, ts, sr2.ID)
	if st2.State != "done" || st2.Summary == nil {
		t.Fatalf("cached job not immediately done: %+v", st2)
	}
	if st2.Summary.PeakO3 != st.Summary.PeakO3 {
		t.Errorf("cached answer differs: %g vs %g", st2.Summary.PeakO3, st.Summary.PeakO3)
	}
	if hits := metric(t, ts, "airshedd_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if misses := metric(t, ts, "airshedd_cache_misses_total"); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
}

// TestConcurrentDuplicateSubmissionsCoalesce hammers POST /v1/runs with
// identical scenarios while the first is in flight: all callers must get
// the same job ID and the scenario must execute exactly once.
func TestConcurrentDuplicateSubmissionsCoalesce(t *testing.T) {
	ts, _ := testServer(t, sched.Options{Workers: 1})

	// Occupy the single worker so duplicates stay in flight.
	filler, code := postRun(t, ts, miniBody(3))
	if code != http.StatusAccepted {
		t.Fatalf("filler submit: %d", code)
	}

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sr, code := postRun(t, ts, miniBody(2))
			if code != http.StatusAccepted {
				t.Errorf("dup submit %d: status %d", i, code)
				return
			}
			ids[i] = sr.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("duplicate submissions spread over jobs: %v", ids)
		}
	}
	waitDone(t, ts, filler.ID)
	if st := waitDone(t, ts, ids[0]); st.State != "done" {
		t.Fatalf("coalesced job ended %s: %s", st.State, st.Error)
	}
	if got := metric(t, ts, "airshedd_jobs_coalesced_total"); got != n-1 {
		t.Errorf("coalesced = %d, want %d", got, n-1)
	}
	if got := metric(t, ts, "airshedd_jobs_completed_total"); got != 2 {
		t.Errorf("completed = %d, want 2 (duplicates executed?)", got)
	}
}

// TestShutdownDrainsInFlight mirrors the SIGTERM path: with jobs queued
// and running, Shutdown must finish them all without panics (the test
// binary runs under -race in CI, covering the concurrency claim).
func TestShutdownDrainsInFlight(t *testing.T) {
	ts, scheduler := testServer(t, sched.Options{Workers: 1})

	var ids []string
	for nodes := 2; nodes <= 4; nodes++ {
		sr, code := postRun(t, ts, miniBody(nodes))
		if code != http.StatusAccepted {
			t.Fatalf("submit nodes=%d: %d", nodes, code)
		}
		ids = append(ids, sr.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := scheduler.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		if st := getStatus(t, ts, id); st.State != "done" {
			t.Errorf("job %s after drain: %s (%s)", id, st.State, st.Error)
		}
	}
	// Post-drain submissions are refused with 503.
	if _, code := postRun(t, ts, miniBody(5)); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: status %d, want 503", code)
	}
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	ts, _ := testServer(t, sched.Options{Workers: 1, QueueDepth: 1})

	first, code := postRun(t, ts, miniBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// Wait until the worker picks it up so the queue is empty again.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, first.ID).State == "queued" {
		if time.Now().After(deadline) {
			t.Fatal("job stuck in queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code := postRun(t, ts, miniBody(3)); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	var overloaded *http.Response
	for nodes := 4; nodes < 8; nodes++ {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
			bytes.NewBufferString(miniBody(nodes)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			overloaded = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("overload submit: unexpected status %d", resp.StatusCode)
		}
	}
	if overloaded == nil {
		t.Fatal("full queue never returned 429")
	}
	// Backpressure must come with retry guidance derived from the
	// scheduler's backlog estimate: a whole positive number of seconds.
	ra, err := strconv.Atoi(overloaded.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", overloaded.Header.Get("Retry-After"))
	}
	if rej := metric(t, ts, "airshedd_jobs_rejected_total"); rej == 0 {
		t.Error("rejections not counted")
	}
	if w := metricFloat(t, ts, "airshedd_estimated_wait_seconds"); w <= 0 {
		t.Errorf("estimated wait gauge %g while loaded, want > 0", w)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := testServer(t, sched.Options{})
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"dataset":`},
		{"unknown field", `{"dataset":"mini","machine":"t3e","nodes":2,"hours":1,"hepf":true}`},
		{"unknown dataset", `{"dataset":"mars","machine":"t3e","nodes":2,"hours":1}`},
		{"zero nodes", `{"dataset":"mini","machine":"t3e","nodes":0,"hours":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, code := postRun(t, ts, tc.body); code != http.StatusBadRequest {
				t.Errorf("status %d, want 400", code)
			}
		})
	}
	// Unknown job IDs are 404.
	resp, err := http.Get(ts.URL + "/v1/runs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestPredictEndpoint(t *testing.T) {
	ts, _ := testServer(t, sched.Options{})

	get := func(query string) (predictResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/predict?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr predictResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatal(err)
			}
		}
		return pr, resp.StatusCode
	}

	pr, code := get("dataset=mini&machine=t3e&nodes=16&hours=1")
	if code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}
	if pr.TotalSeconds <= 0 || pr.ChemistrySeconds <= 0 || len(pr.CommByKind) == 0 {
		t.Fatalf("empty prediction: %+v", pr)
	}
	// Second call reuses the cached trace and must be near-instant.
	start := time.Now()
	pr2, code := get("dataset=mini&machine=paragon&nodes=64&hours=1")
	if code != http.StatusOK {
		t.Fatalf("second predict: status %d", code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cached-trace prediction took %v; trace cache not working?", elapsed)
	}
	if pr2.Machine == pr.Machine {
		t.Errorf("machine not varied: %s", pr2.Machine)
	}
	// More nodes on the same machine must not predict slower compute.
	pr3, _ := get("dataset=mini&machine=t3e&nodes=64&hours=1")
	if pr3.ChemistrySeconds > pr.ChemistrySeconds {
		t.Errorf("chemistry did not scale: %g s at 64 nodes vs %g s at 16",
			pr3.ChemistrySeconds, pr.ChemistrySeconds)
	}

	if _, code := get("dataset=mini&machine=t3e&nodes=bogus&hours=1"); code != http.StatusBadRequest {
		t.Errorf("bad nodes: status %d, want 400", code)
	}
	if _, code := get("dataset=mini&machine=t3e"); code != http.StatusBadRequest {
		t.Errorf("missing nodes/hours: status %d, want 400", code)
	}
}

// storeServer is testServer backed by a persistent artifact store at
// dir, mirroring `airshedd -store dir`.
func storeServer(t *testing.T, dir string) (*httptest.Server, *sched.Scheduler) {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return testServer(t, sched.Options{Workers: 2, Store: st})
}

func getSweep(t *testing.T, ts *httptest.Server, id string) (sweep.Status, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st sweep.Status
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// TestSweepEndpointWarmStarts drives a batch policy study end to end
// over HTTP: POST the grid, poll to done, and verify every control
// variant warm-started from the shared baseline prefix the engine
// seeded — the /metrics counters must agree.
func TestSweepEndpointWarmStarts(t *testing.T) {
	ts, _ := storeServer(t, t.TempDir())

	body := `{"name":"controls",
		"base":{"dataset":"mini","machine":"t3e","nodes":2,"hours":3},
		"grid":{"nox_scales":[0.7,0.5],"control_start_hours":[2]}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var st sweep.Status
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad sweep response %q: %v", raw, err)
	}
	if st.ID == "" || st.Total != 2 || st.Seeds != 1 {
		t.Fatalf("sweep accepted as %+v, want 2 jobs / 1 seed", st)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
		var code int
		if st, code = getSweep(t, ts, st.ID); code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
	}
	if st.Completed != 2 || st.Failed != 0 || st.WarmStarts != 2 {
		t.Fatalf("final sweep status: %+v", st)
	}
	if len(st.Table) != 2 {
		t.Fatalf("policy table has %d rows (%s)", len(st.Table), st.TableError)
	}
	for _, row := range st.Table {
		if row.PeakO3 <= 0 || row.WarmStartHour != 2 {
			t.Errorf("bad policy row: %+v", row)
		}
	}
	if warm := metric(t, ts, "airshedd_warm_starts_total"); warm != 2 {
		t.Errorf("warm starts metric = %d, want 2", warm)
	}
	// Store-level counters only appear when -store is configured; the
	// seed pass plus two warm starts must have hit the store.
	if hits := metric(t, ts, "airshedd_store_hits_total"); hits == 0 {
		t.Error("store hits metric is zero after a warm-started sweep")
	}

	// The sweep shows up in the listing.
	listResp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list []sweep.Status
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("sweep listing = %+v", list)
	}
}

func TestSweepValidationAndUnknownID(t *testing.T) {
	ts, _ := testServer(t, sched.Options{})
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"base":`},
		{"unknown field", `{"base":{"dataset":"mini","machine":"t3e","nodes":2,"hours":1},"grud":{}}`},
		{"bad dataset", `{"base":{"dataset":"mini","machine":"t3e","nodes":2,"hours":1},"grid":{"datasets":["mars"]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewBufferString(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	if _, code := getSweep(t, ts, "s9999"); code != http.StatusNotFound {
		t.Errorf("unknown sweep: status %d, want 404", code)
	}
}

// TestDaemonRestartServesFromStore is the durability acceptance test:
// a second daemon sharing the first one's store directory must answer a
// previously computed scenario instantly, without re-running it.
func TestDaemonRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()

	ts1, sched1 := storeServer(t, dir)
	sr, code := postRun(t, ts1, miniBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	st := waitDone(t, ts1, sr.ID)
	if st.State != "done" || st.Summary == nil {
		t.Fatalf("first run: %+v", st)
	}
	// Simulate the daemon dying: drain and forget the first instance.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sched1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	ts2, _ := storeServer(t, dir)
	sr2, code := postRun(t, ts2, miniBody(2))
	if code != http.StatusOK || !sr2.Cached || !sr2.FromStore {
		t.Fatalf("restart resubmit: status %d, response %+v", code, sr2)
	}
	st2 := getStatus(t, ts2, sr2.ID)
	if st2.State != "done" || st2.Summary == nil {
		t.Fatalf("restored job not immediately done: %+v", st2)
	}
	if st2.Summary.PeakO3 != st.Summary.PeakO3 {
		t.Errorf("restored answer differs: %g vs %g", st2.Summary.PeakO3, st.Summary.PeakO3)
	}
	if !st2.FromStore {
		t.Error("status does not mark the job as served from the store")
	}
	if got := metric(t, ts2, "airshedd_store_result_hits_total"); got != 1 {
		t.Errorf("store result hits = %d, want 1", got)
	}
	if got := metric(t, ts2, "airshedd_jobs_completed_total"); got != 0 {
		t.Errorf("restarted daemon executed %d jobs, want 0", got)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t, sched.Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Store  string `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	// No -store in this configuration: healthy, no breaker to report.
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Store != "" {
		t.Errorf("healthz: %d %+v", resp.StatusCode, h)
	}
}

// TestHealthzSurfacesJournalWarnings: a journal whose replay was
// partial (torn tail, corrupt frames) keeps the daemon serving, but
// /healthz must carry the warning. One journal holds jobs and sweeps
// alike, so there is one warning.
func TestHealthzSurfacesJournalWarnings(t *testing.T) {
	// A journal with a damaged tail: accepted records of both writers
	// followed by garbage bytes, so reopening recovers a prefix and sets
	// Warning.
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("j000001", []byte(`{"dataset":"mini"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("fs:f0001", []byte(`{"specs":[{"dataset":"mini"}]}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn frame garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	if torn.Warning() == nil {
		t.Fatal("damaged journal reopened with a nil Warning — test stages nothing")
	}

	scheduler := sched.New(sched.Options{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		scheduler.Shutdown(ctx)
	})
	srv := newServer(scheduler, nil, false, nil, "").
		withJournal(torn)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Errorf("partial journal recovery must not fail liveness: %d %+v", resp.StatusCode, h)
	}
	if w, _ := h["journal_warning"].(string); !strings.Contains(w, "journal") {
		t.Errorf("journal_warning = %q, want the replay warning", w)
	}
	if w, ok := h["fleet_journal_warning"]; ok {
		t.Errorf("fleet_journal_warning = %v: one journal has one warning", w)
	}
}

// TestEngineGaugesAndPprof verifies the host-engine gauges appear in
// /metrics and that the profiling endpoints are live when enabled. A
// completed run must have pushed chunks through the shared engine.
func TestEngineGaugesAndPprof(t *testing.T) {
	ts, _ := testServer(t, sched.Options{})

	sr, code := postRun(t, ts, miniBody(2))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, ts, sr.ID)

	if w := metric(t, ts, "airshedd_engine_workers"); w < 1 {
		t.Errorf("engine workers = %d, want >= 1", w)
	}
	if n := metric(t, ts, "airshedd_engine_runs_total"); n < 1 {
		t.Errorf("engine runs = %d, want >= 1 after a completed job", n)
	}
	if n := metric(t, ts, "airshedd_engine_chunks_total"); n < 1 {
		t.Errorf("engine chunks = %d, want >= 1 after a completed job", n)
	}
	// Gauges, not counters: nothing should be in flight now.
	if q := metric(t, ts, "airshedd_engine_chunk_queue_depth"); q != 0 {
		t.Errorf("idle chunk queue depth = %d, want 0", q)
	}

	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d, want 200", resp.StatusCode)
	}
}

// TestRequestBodyLimit sends oversized POST bodies to both submission
// endpoints and expects 413 — a client cannot make the daemon buffer an
// unbounded request.
func TestRequestBodyLimit(t *testing.T) {
	ts, _ := testServer(t, sched.Options{})

	huge := `{"dataset":"` + strings.Repeat("x", maxRequestBody+1) + `"}`
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: %d %s, want 413",
				path, len(huge), resp.StatusCode, raw)
		}
	}

	// A body exactly at the limit is still parsed (and rejected only on
	// its content, not its size).
	pad := strings.Repeat(" ", maxRequestBody-len(miniBody(2)))
	if _, code := postRun(t, ts, miniBody(2)+pad); code != http.StatusAccepted && code != http.StatusOK {
		t.Errorf("at-limit body rejected with %d", code)
	}
}

// TestHealthzDegradedStore opens the store's breaker with injected
// write faults and verifies the daemon's contract while degraded: runs
// keep completing, /healthz reports "degraded" (still HTTP 200 — the
// process is alive), and the metrics expose the breaker state.
func TestHealthzDegradedStore(t *testing.T) {
	inj := resilience.New(5).Set(resilience.PointStoreWrite, 1)
	resilience.Enable(inj)
	defer resilience.Disable()

	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st.SetBreaker(resilience.NewBreaker(1, time.Hour))
	ts, _ := testServer(t, sched.Options{Workers: 1, Store: st})

	sr, code := postRun(t, ts, miniBody(2))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	if final := waitDone(t, ts, sr.ID); final.State != "done" {
		t.Fatalf("run under store outage: %s (%s)", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz must stay 200 (liveness), got %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Store != "open" {
		t.Errorf("healthz = %+v, want status degraded / store open", h)
	}

	if v := metric(t, ts, "airshedd_store_degraded"); v != 1 {
		t.Errorf("airshedd_store_degraded = %d, want 1", v)
	}
	if v := metric(t, ts, "airshedd_store_faults_total"); v < 1 {
		t.Errorf("airshedd_store_faults_total = %d, want >= 1", v)
	}
	if v := metric(t, ts, "airshedd_store_breaker_trips_total"); v != 1 {
		t.Errorf("airshedd_store_breaker_trips_total = %d, want 1", v)
	}
}

// TestRetryCountersSurfaceInAPI fails the first execution attempt and
// checks the retry shows up in the status response and /metrics.
func TestRetryCountersSurfaceInAPI(t *testing.T) {
	inj := resilience.New(9).SetLimited(resilience.PointSchedExec, 1, 1)
	resilience.Enable(inj)
	defer resilience.Disable()

	ts, _ := testServer(t, sched.Options{Workers: 1, Retry: resilience.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: 0.5,
	}})
	sr, _ := postRun(t, ts, miniBody(2))
	final := waitDone(t, ts, sr.ID)
	if final.State != "done" {
		t.Fatalf("job did not recover: %s (%s)", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", final.Attempts)
	}
	if final.LastError == "" {
		t.Error("last_error not surfaced after a retried run")
	}
	if v := metric(t, ts, "airshedd_jobs_retries_total"); v != 1 {
		t.Errorf("airshedd_jobs_retries_total = %d, want 1", v)
	}
}
