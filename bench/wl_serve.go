package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"airshed/internal/perfmodel"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/sr"
	"airshed/internal/store"
)

// openRate is the fixed arrival rate of the open-loop phase, roughly a
// fifth of what the daemon sustains in the closed loop on two cores.
const openRate = 2000

// The request mix, in twentieths: 40% SR predictions, 25% cached
// submissions, 20% status polls, 10% analytic predictions, 5% metrics.
var serveMix = []struct {
	op    string
	share int
}{{"sr_predict", 8}, {"runs_hit", 5}, {"status", 4}, {"predict", 2}, {"metrics", 1}}

// hotRequest is one prepared request and the response it must reproduce.
type hotRequest struct {
	op     string
	method string
	url    string
	body   []byte
	want   []byte // reference response (normalised); nil = only 2xx + marker
}

// daemon is the airshedd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	once sync.Once
}

// stop asks the daemon to drain, waits for it, and kills it if it lingers.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
		done := make(chan struct{})
		go func() { d.cmd.Wait(); close(done) }() //nolint:errcheck
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck
			<-done
		}
	})
}

// buildDaemon compiles cmd/airshedd into bench/out/bin. It is build time,
// not set-up time: after the first run in a checkout it is a no-op.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(outDir(root), "bin", "airshedd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/airshedd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/airshedd: %w\n%s", err, out)
	}
	return bin, nil
}

func startDaemon(c *runCtx, bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	dir, err := c.tempDir("daemon-store")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(c.Scratch, "airshedd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-store", dir, "-workers", fmt.Sprint(c.Procs), "-scrub-interval", "0")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	logf.Close()
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir}
	atExit(d.stop)
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("airshedd did not become healthy on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// call performs one request on client and returns status and body.
func call(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// pollJSON repeats a request until done(decoded body) or the deadline.
func pollJSON(client *http.Client, method, url string, body []byte, done func(map[string]any) bool) (map[string]any, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, data, err := call(client, method, url, body)
		if err != nil {
			return nil, err
		}
		if code/100 != 2 {
			return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, code, data)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, url, err)
		}
		if done(m) {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s %s: not finished after 2 minutes: %s", method, url, data)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// dropID blanks the per-submission job id of a POST /v1/runs answer: a
// cache hit issues a fresh id every time, everything else must repeat.
func dropID(resp []byte) []byte {
	const key = `"id": "`
	i := bytes.Index(resp, []byte(key))
	if i < 0 {
		return resp
	}
	j := bytes.IndexByte(resp[i+len(key):], '"')
	if j < 0 {
		return resp
	}
	out := append([]byte(nil), resp[:i+len(key)]...)
	return append(out, resp[i+len(key)+j:]...)
}

// sample is one timed request.
type sample struct {
	op      int // index into the request pool's op table
	due     time.Time
	sent    time.Time
	done    time.Time
	failure string
}

// rateWindow is the slice of the closed loop one capacity sample counts
// completions over.
const rateWindow = 100 * time.Millisecond

func runServeHot(c *runCtx) (*outcome, error) {
	o := newOutcome()
	// The load generator runs Go code on one thread whatever nproc is: its
	// clients are goroutines that mostly wait for the daemon, and a second
	// generator thread on a two-core machine only fights the daemon for
	// the cores, which is what made capacity differ by a third between
	// runs of the same code. The in-process probes get the cores back.
	prevProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevProcs)
	bin, err := buildDaemon(c.Root)
	if err != nil {
		return nil, err
	}

	// Set-up: daemon up, one mini job done, one SR matrix built, the
	// analytic model's trace cache warm.
	t0 := time.Now()
	d, err := startDaemon(c, bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setupClient := &http.Client{Timeout: time.Minute}
	runSpec := scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 4, Hours: 2}
	runBody, _ := json.Marshal(runSpec)
	sub, err := pollJSON(setupClient, "POST", d.base+"/v1/runs", runBody, func(map[string]any) bool { return true })
	if err != nil {
		return nil, err
	}
	jobID, _ := sub["id"].(string)
	statusURL := d.base + "/v1/runs/" + jobID
	if _, err := pollJSON(setupClient, "GET", statusURL, nil, func(m map[string]any) bool {
		return m["state"] == "done" || m["state"] == "failed" || m["state"] == "cancelled"
	}); err != nil {
		return nil, err
	}
	set := sr.Set{Base: scenario.Spec{Dataset: "mini", Machine: "gohost", Nodes: 1, Hours: 1}, Groups: 4}
	setBody, _ := json.Marshal(set)
	built, err := pollJSON(setupClient, "POST", d.base+"/v1/sr/build", setBody, func(m map[string]any) bool { return m["state"] == "ready" })
	if err != nil {
		return nil, err
	}
	matrixKey, _ := built["key"].(string)
	predictURL := d.base + "/v1/predict?dataset=mini&machine=t3e&nodes=16&hours=2"
	if code, data, err := call(setupClient, "GET", predictURL, nil); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("warming /v1/predict: HTTP %d %s %v", code, data, err)
	}
	o.set("setup_s", time.Since(t0).Seconds(), 1, "")

	// The request pool: seed-drawn SR queries plus one request per other
	// endpoint, each with its reference response taken now.
	r := c.rng("serve-hot.queries")
	var pool []hotRequest
	byOp := make(map[string][]int)
	add := func(h hotRequest) { byOp[h.op] = append(byOp[h.op], len(pool)); pool = append(pool, h) }
	for i := 0; i < 16; i++ {
		q := map[string]any{"matrix_key": matrixKey,
			"nox_scale": float64(80+r.Intn(41)) / 100, "voc_scale": float64(80+r.Intn(41)) / 100}
		if i%2 == 1 {
			q["group_deltas"] = []sr.GroupDelta{{Group: r.Intn(4), Knob: "nox", Delta: float64(r.Intn(21)-10) / 100}}
		}
		body, _ := json.Marshal(q)
		add(hotRequest{op: "sr_predict", method: "POST", url: d.base + "/v1/sr/predict", body: body})
	}
	add(hotRequest{op: "runs_hit", method: "POST", url: d.base + "/v1/runs", body: runBody})
	add(hotRequest{op: "status", method: "GET", url: statusURL})
	add(hotRequest{op: "predict", method: "GET", url: predictURL})
	add(hotRequest{op: "metrics", method: "GET", url: d.base + "/metrics"})
	for i := range pool {
		code, data, err := call(setupClient, pool[i].method, pool[i].url, pool[i].body)
		if err != nil || code/100 != 2 {
			return nil, fmt.Errorf("reference %s: HTTP %d %s %v", pool[i].op, code, data, err)
		}
		switch pool[i].op {
		case "metrics": // counters move; checked for status and marker only
		case "runs_hit":
			pool[i].want = dropID(data)
		default:
			pool[i].want = data
		}
	}
	verify := func(h *hotRequest, code int, data []byte) string {
		switch {
		case code/100 != 2:
			return fmt.Sprintf("%s: HTTP %d", h.op, code)
		case h.op == "metrics":
			if !bytes.Contains(data, []byte("airshedd_jobs_submitted_total")) {
				return "metrics: counters missing from the answer"
			}
		case h.op == "runs_hit":
			if !bytes.Equal(dropID(data), h.want) {
				return "runs_hit: answer differs from the first one"
			}
		case !bytes.Equal(data, h.want):
			return h.op + ": answer differs from the first one"
		}
		return ""
	}

	// schedule is the seed-shuffled op sequence of one client: blocks of 20
	// hold the exact mix, shuffled within the block.
	schedule := func(r *rand.Rand, n int) []int {
		seq := make([]int, 0, n+20)
		for len(seq) < n {
			var block []int
			for _, m := range serveMix {
				for k := 0; k < m.share; k++ {
					ids := byOp[m.op]
					block = append(block, ids[r.Intn(len(ids))])
				}
			}
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			seq = append(seq, block...)
		}
		return seq[:n]
	}
	newClient := func() *http.Client {
		return &http.Client{Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}}
	}
	clients := make([]*http.Client, c.Procs)
	for i := range clients {
		clients[i] = newClient()
	}
	doOne := func(cl *http.Client, idx int, s *sample) {
		h := &pool[idx]
		s.op = idx
		s.sent = time.Now()
		code, data, err := call(cl, h.method, h.url, h.body)
		s.done = time.Now()
		if err != nil {
			s.failure = h.op + ": " + err.Error()
			return
		}
		s.failure = verify(h, code, data)
	}

	// closedLoop: every client sends its next request when the previous
	// one has answered, for d.
	var loopStart time.Time // of the latest closed loop
	closedLoop := func(phase string, dur time.Duration) ([]sample, time.Duration) {
		per := make([][]sample, c.Procs)
		var wg sync.WaitGroup
		start := time.Now()
		loopStart = start
		for ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				seq := schedule(c.rng(fmt.Sprintf("serve-hot.%s.client%d", phase, ci)), 4096)
				for i := 0; time.Since(start) < dur; i++ {
					var s sample
					doOne(clients[ci], seq[i%len(seq)], &s)
					s.due = s.sent
					per[ci] = append(per[ci], s)
				}
			}(ci)
		}
		wg.Wait()
		elapsed := time.Since(start)
		var all []sample
		for _, p := range per {
			all = append(all, p...)
		}
		return all, elapsed
	}
	// openLoop: request i is due at start + i/rate whatever happened to the
	// ones before it; client i%procs sends it, late if that client is
	// still busy. Latency is counted from the due time.
	openLoop := func(dur time.Duration) []sample {
		n := int(dur.Seconds() * openRate)
		seq := schedule(c.rng("serve-hot.open"), n)
		per := make([][]sample, c.Procs)
		var wg sync.WaitGroup
		start := time.Now().Add(10 * time.Millisecond)
		for ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for i := ci; i < n; i += c.Procs {
					s := sample{due: start.Add(time.Duration(i) * time.Second / openRate)}
					if wait := time.Until(s.due); wait > 0 {
						time.Sleep(wait)
					}
					doOne(clients[ci], seq[i], &s)
					per[ci] = append(per[ci], s)
				}
			}(ci)
		}
		wg.Wait()
		var all []sample
		for _, p := range per {
			all = append(all, p...)
		}
		return all
	}
	// book counts a phase's samples, records failures and, when traced,
	// one span per request.
	book := func(samples []sample, tr *tracer, phase string) {
		o.Attempted += len(samples)
		for i := range samples {
			s := &samples[i]
			if s.failure != "" {
				if o.Failed < 5 {
					o.Checks = append(o.Checks, phase+": "+s.failure)
				}
				o.Failed++
			}
			tr.add(span{Name: pool[s.op].method + " " + pool[s.op].op, Layer: "airshedd", ID: phase, Parent: -1, Lane: i % c.Procs, Start: s.sent, End: s.done})
		}
	}
	latencies := func(samples []sample, from func(*sample) time.Time, to func(*sample) time.Time) []float64 {
		out := make([]float64, len(samples))
		for i := range samples {
			out[i] = float64(to(&samples[i]).Sub(from(&samples[i]))) / float64(time.Microsecond)
		}
		return out
	}
	due := func(s *sample) time.Time { return s.due }
	sent := func(s *sample) time.Time { return s.sent }
	done := func(s *sample) time.Time { return s.done }

	// Warm the connections and the daemon's paths before timing.
	warm, _ := closedLoop("warm", 300*time.Millisecond)
	book(warm, nil, "warm-up")

	if !c.traced() {
		// The open loop goes first and the daemon's memory is sampled during
		// it alone: it sends the same number of requests on every machine,
		// and the daemon keeps a record of every submission, so its resident
		// set follows the requests served, not the time passed.
		rss := sampleRSS(d.cmd.Process.Pid)
		open := openLoop(c.Budget / 2)
		v, err := rss.stop()
		if err != nil {
			return nil, err
		}
		o.Metrics["rss_mb"] = v
		book(open, nil, "open loop")
		closed, elapsed := closedLoop("closed", c.Budget/2)
		book(closed, nil, "closed loop")
		d.stop()
		// Capacity is the fast quartile of the completion counts of the
		// loop's whole windows: windows in which a neighbour stole the machine
		// do not move it, and a stalled window counts as the zero it was.
		rates := make([]float64, int(elapsed/rateWindow))
		for i := range closed {
			if w := int(closed[i].done.Sub(loopStart) / rateWindow); w < len(rates) {
				rates[w] += float64(time.Second / rateWindow)
			}
		}
		if len(rates) == 0 {
			rates = []float64{float64(len(closed)) / elapsed.Seconds()}
		}
		o.set("work_per_s", fastQuartileRate(rates), len(closed), "")
		lat := summarize(latencies(open, due, done))
		o.set("latency_ms", lat.Median/1000, lat.N, lat.tailLabel(1e-3))
		return o, nil
	}
	rss := sampleRSS(d.cmd.Process.Pid)
	finish := func() error {
		v, err := rss.stop()
		o.Metrics["rss_mb"] = v
		d.stop()
		return err
	}

	// Traced pass: closed loop untraced then traced (the difference is the
	// span bookkeeping), open loop traced, then in-process unit costs.
	// Untraced and traced slices alternate so machine drift hits both.
	slice := c.Budget / 8
	var closedU, closedT []sample
	var elU, elT time.Duration
	for k := 0; k < 2; k++ {
		part, el := closedLoop(fmt.Sprintf("closed-untraced%d", k), slice)
		book(part, nil, "closed loop")
		closedU, elU = append(closedU, part...), elU+el
		part, el = closedLoop(fmt.Sprintf("closed%d", k), slice)
		tb := time.Now()
		book(part, c.Trace, "closed loop")
		closedT, elT = append(closedT, part...), elT+el+time.Since(tb)
	}
	open := openLoop(c.Budget / 2)
	book(open, c.Trace, "open loop")
	rateU, rateT := float64(len(closedU))/elU.Seconds(), float64(len(closedT))/elT.Seconds()
	o.set("bench.trace_overhead_pct", overheadPct(1/rateU, 1/rateT), len(closedT), "")
	for _, m := range serveMix {
		var xs []float64
		for i := range closedT {
			if pool[closedT[i].op].op == m.op {
				xs = append(xs, float64(closedT[i].done.Sub(closedT[i].sent))/float64(time.Microsecond))
			}
		}
		o.set("airshedd."+m.op+"_p50_us", median(xs), len(xs), "")
		o.set("airshedd."+m.op+"_p99_us", quantile(xs, 0.99), len(xs), "")
	}
	o.set("airshedd.open_p99_us", quantile(latencies(open, due, done), 0.99), len(open), "")
	o.set("airshedd.open_late_p99_us", quantile(latencies(open, due, sent), 0.99), len(open), "")
	if err := finish(); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(prevProcs)
	return o, serveProbes(c, o, d.dir, matrixKey, runSpec)
}

// serveProbes times, in-process and on the stopped daemon's own store, the
// calls a hot request is made of.
func serveProbes(c *runCtx, o *outcome, dir, matrixKey string, spec scenario.Spec) error {
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	var m sr.Matrix
	if !st.GetSRMatrix(matrixKey, &m) {
		return fmt.Errorf("the daemon's store has no SR matrix %s", matrixKey)
	}
	q := sr.Query{NOxScale: 0.9, VOCScale: 1.1}
	preds, err := probe(c, "sr.Matrix.Predict", "sr", 10, 200, func() error {
		_, err := m.Predict(q)
		return err
	})
	if err != nil {
		return err
	}
	o.setProbe("sr.predict_us", preds, time.Microsecond)

	s := sched.New(sched.Options{Workers: c.Procs, GoParallel: true, Store: st})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // idle scheduler
	}()
	hits, err := probe(c, "sched.Submit+Await cached", "sched", 10, 200, func() error {
		js, err := s.Submit(spec)
		if err != nil {
			return err
		}
		js, err = s.Await(context.Background(), js.ID)
		if err == nil && !js.Cached {
			err = fmt.Errorf("submission was not a cache hit")
		}
		return err
	})
	if err != nil {
		return err
	}
	o.setProbe("sched.hit_us", hits, time.Microsecond)

	costs, err := probe(c, "perfmodel.CostEstimate", "perfmodel", 10, 200, func() error {
		_, err := perfmodel.CostEstimate(spec)
		return err
	})
	if err != nil {
		return err
	}
	o.setProbe("perfmodel.cost_estimate_us", costs, time.Microsecond)
	return nil
}
