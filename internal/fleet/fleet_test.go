package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/store"
	"airshed/internal/sweep"
)

// testWorker is one in-process fleet worker: a real scheduler + sweep
// engine over an HTTP-backed store, served on the same two sweep
// endpoints cmd/airshedd exposes, plus a heartbeating agent.
type testWorker struct {
	name   string
	sched  *sched.Scheduler
	engine *sweep.Engine
	srv    *httptest.Server
	agent  *Agent
}

func startTestWorker(t *testing.T, name, coordURL string) *testWorker {
	t.Helper()
	st, err := store.OpenBackend(store.NewHTTPBackend(coordURL, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Short cooldown so a coordinator outage doesn't park the worker's
	// store breaker for the default 10s after recovery.
	st.SetBreaker(resilience.NewBreaker(5, time.Second))
	sc := sched.New(sched.Options{
		Workers:    2,
		QueueDepth: 64,
		Store:      st,
	})
	engine := sweep.NewEngine(sc)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req sweep.Request
		if !decodeFleetBody(w, r, &req) {
			return
		}
		st, err := engine.Start(req)
		if err != nil {
			fleetError(w, http.StatusBadRequest, err)
			return
		}
		fleetJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := engine.Status(r.PathValue("id"))
		if err != nil {
			fleetError(w, http.StatusNotFound, err)
			return
		}
		fleetJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := engine.Cancel(r.PathValue("id")); err != nil {
			fleetError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)

	agent, err := StartAgent(AgentOptions{
		Coordinator: coordURL,
		SelfURL:     srv.URL,
		Name:        name,
		Machine:     "gohost",
		HostWorkers: 2,
		Workers:     2,
		Version:     "test",
		Interval:    100 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		Scheduler:   sc,
		Store:       st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testWorker{name: name, sched: sc, engine: engine, srv: srv, agent: agent}
}

// kill simulates a crash: agent stops heartbeating, the HTTP endpoint
// refuses connections, in-flight jobs are cancelled.
func (w *testWorker) kill() {
	w.agent.Stop()
	w.srv.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	go w.sched.Shutdown(cancelled) //nolint:errcheck
}

func (w *testWorker) shutdown() {
	w.agent.Stop()
	w.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.sched.Shutdown(ctx) //nolint:errcheck
}

func waitForWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, w := range c.Workers() {
			if !w.Lost {
				live++
			}
		}
		if live >= n {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("fewer than %d workers registered: %+v", n, c.Workers())
}

// fleetRequest expands to 5 specs in 4 warm-start families, so all
// three workers receive work: three full-run NOx levels (three distinct
// families) plus two mid-run control variants sharing the baseline
// prefix (one family, co-located by Pack).
func fleetRequest() sweep.Request {
	base := scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 3}
	return sweep.Request{
		Name: "fleet-it",
		Base: base,
		Grid: sweep.Grid{NOxScales: []float64{1.0, 0.8, 0.6}},
		Specs: []scenario.Spec{
			{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 3, NOxScale: 0.8, ControlStartHour: 2},
			{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 3, NOxScale: 0.6, ControlStartHour: 2},
		},
	}
}

// TestFleetSweepKillWorkerBitIdentical is the fleet acceptance test: a
// sweep sharded across 3 in-process workers — one killed right after
// dispatch, its shard reassigned — completes with results bit-identical
// to the same sweep run on a single daemon, and every artifact is
// servable from the coordinator's store.
func TestFleetSweepKillWorkerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test is not short")
	}

	// Coordinator: directory-backed store + registry, served over HTTP.
	coordStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{
		HeartbeatTimeout: 700 * time.Millisecond,
		PollInterval:     250 * time.Millisecond,
		PollFailures:     2,
		Logf:             t.Logf,
	})
	mux := http.NewServeMux()
	coord.RegisterRoutes(mux, store.NewBlobServer(coordStore))
	coordSrv := httptest.NewServer(mux)
	defer coordSrv.Close()

	workers := []*testWorker{
		startTestWorker(t, "w1", coordSrv.URL),
		startTestWorker(t, "w2", coordSrv.URL),
		startTestWorker(t, "w3", coordSrv.URL),
	}
	killed := make(map[string]bool)
	defer func() {
		for _, w := range workers {
			if !killed[w.name] {
				w.shutdown()
			}
		}
	}()
	waitForWorkers(t, coord, 3)

	st, err := coord.StartSweep(fleetRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) < 3 {
		t.Fatalf("sweep used %d shards, want >= 3: %+v", len(st.Shards), st.Shards)
	}

	// Kill the worker holding the largest shard, immediately after
	// dispatch: the reassignment path must engage regardless of how far
	// its jobs got.
	victim := st.Shards[0]
	for _, sh := range st.Shards[1:] {
		if sh.Specs > victim.Specs {
			victim = sh
		}
	}
	for _, w := range workers {
		if w.name == victim.Worker {
			t.Logf("killing %s (shard of %d specs)", w.name, victim.Specs)
			w.kill()
			killed[w.name] = true
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	final, err := coord.Await(ctx, st.ID)
	if err != nil {
		t.Fatalf("fleet sweep did not finish: %v (last: %+v)", err, final)
	}
	if final.State != "done" {
		t.Fatalf("fleet sweep state = %q: %+v", final.State, final)
	}
	if final.Reassigned == 0 {
		t.Error("killed worker's shard was never reassigned")
	}
	if final.Failed != 0 {
		t.Errorf("fleet sweep had %d failed jobs", final.Failed)
	}

	// Reference: the same sweep on a single daemon with its own store.
	refStore, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	refSched := sched.New(sched.Options{Workers: 2, QueueDepth: 64, Store: refStore})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		refSched.Shutdown(ctx) //nolint:errcheck
	}()
	refEngine := sweep.NewEngine(refSched)
	refStatus, err := refEngine.Start(fleetRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refEngine.Await(ctx, refStatus.ID); err != nil {
		t.Fatal(err)
	}

	specs, err := fleetRequest().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 5 {
		t.Fatalf("request expands to %d specs, want 5", len(specs))
	}
	for _, sp := range specs {
		h := sp.Normalize().Hash()
		fleetRes, ok := coordStore.GetResult(h)
		if !ok {
			t.Errorf("spec %s missing from coordinator store", h)
			continue
		}
		refRes, ok := refStore.GetResult(h)
		if !ok {
			t.Errorf("spec %s missing from reference store", h)
			continue
		}
		if !reflect.DeepEqual(fleetRes.Final, refRes.Final) {
			t.Errorf("spec %s: fleet result diverged from single-daemon run", h)
		}
		if fleetRes.PeakO3 != refRes.PeakO3 || fleetRes.PeakO3Cell != refRes.PeakO3Cell {
			t.Errorf("spec %s: peak O3 %g@%d vs %g@%d", h,
				fleetRes.PeakO3, fleetRes.PeakO3Cell, refRes.PeakO3, refRes.PeakO3Cell)
		}
	}

	// Fleet results are servable from the coordinator's own scheduler:
	// a submission resolves straight from the store, no simulation.
	coordSched := sched.New(sched.Options{Workers: 1, QueueDepth: 8, Store: coordStore})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coordSched.Shutdown(ctx) //nolint:errcheck
	}()
	js, err := coordSched.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if js, err = coordSched.Await(ctx, js.ID); err != nil {
		t.Fatal(err)
	}
	if !js.FromStore {
		t.Error("coordinator submission of a fleet-computed spec did not resolve from the store")
	}

	// The registry reflects the loss.
	sawLost := false
	for _, w := range coord.Workers() {
		if killed[w.Name] && w.Lost {
			sawLost = true
		}
	}
	if !sawLost {
		t.Error("killed worker never marked lost in the registry")
	}
	g := coord.Gauges()
	if g.ShardsReassigned == 0 || g.SweepsStarted != 1 {
		t.Errorf("gauges: %+v", g)
	}
}

// TestCoordinatorRejectsSweepWithoutWorkers: a sweep with an empty
// registry fails fast instead of queueing into nowhere.
func TestCoordinatorRejectsSweepWithoutWorkers(t *testing.T) {
	coord := NewCoordinator(Options{})
	if _, err := coord.StartSweep(fleetRequest()); err == nil {
		t.Fatal("sweep accepted with no workers")
	}
}
