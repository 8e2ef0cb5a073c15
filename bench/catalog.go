package main

// The catalogue is the single description of what the benchmark measures.
// BENCHMARK.json repeats the names, units and directions (smoke_test.go
// checks the two agree); the README repeats the reasons.

type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx) (*outcome, error)
}

// Workload names are fixed: later issues refer to them.
var workloads = []workloadDef{
	{"la-cold", "one cold 3-hour LA run at paper scale: chemistry, transport, fx redistribution and hourio do all the work, so kernel changes show here and nowhere else", runLACold},
	{"policy-sweep", "a 2x2 emission-control sweep on an empty store: seed pass writes checkpoints, variants warm-start from them, so kernels and store write/read paths share one number", runPolicySweep},
	{"store-replay", "120 machine/node/mode variants answered from stored physics, then again after a restart: zero kernel work, all store codec and fsync, sched resolution and core.Replay", runStoreReplay},
	{"serve-hot", "a live airshedd answering a cached-request mix in a closed loop and at a fixed 2000 req/s: HTTP, JSON, sched cache and sr matvec, the only place a 1% observability cost is visible", runServeHot},
	{"replay-figs", "regenerating every paper figure, ablation and claim from the 24-hour traces: core.Replay, vm, dist.NewPlan and perfmodel used for pricing instead of data movement", runReplayFigs},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// Every workload reports every end-to-end metric (the acceptance driver
// requires it), so the four names are generic and each workload gives them
// its own meaning; endToEndMeaning and issueAliases spell that out.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"rss_mb", "MiB", "lower", 0.25},
}

// endToEndMeaning[workload][metric] is what the generic metric measures
// on that workload.
var endToEndMeaning = map[string]map[string]string{
	"la-cold": {
		"setup_s":    "LA dataset build, snapshot dir, one mini warm-up hour that starts the shared engine (median of 5 set-ups)",
		"latency_ms": "wall of one 3-hour run: sum of the fast quartiles of its three hours and its remainder over the repetitions",
		"work_per_s": "simulated hours per second of that run (3 h / latency)",
		"rss_mb":     "resident set of the workload process, median of 50 ms samples",
	},
	"policy-sweep": {
		"setup_s":    "one mini warm-up hour, then store open + scheduler + engine on an empty directory (median of 5 set-ups)",
		"latency_ms": "wall from Engine.Start to Await done, fast quartile of the sweeps",
		"work_per_s": "sweep jobs (4 variants + prefix seed) per second of that sweep (5 / latency)",
		"rss_mb":     "resident set of the workload process, median of 50 ms samples",
	},
	"store-replay": {
		"setup_s":    "one cold la/t3e/4 3-hour run through sched+store that seeds the directory",
		"latency_ms": "phase B (after restart, pure store hits): milliseconds per restored spec, fast quartile of the intervals between consecutive submissions",
		"work_per_s": "phase A (physics replays): specs completed per second, fast quartile over batches of 10 consecutive completions",
		"rss_mb":     "resident set of the workload process, median of 50 ms samples",
	},
	"serve-hot": {
		"setup_s":    "daemon start, one mini job to done, one SR matrix build, /v1/predict warm-up (daemon build excluded)",
		"latency_ms": "open loop at 2000 req/s: median latency from each request's due time",
		"work_per_s": "closed loop, nproc keep-alive clients: requests completed per second, fast quartile over 100 ms windows",
		"rss_mb":     "resident set of the daemon process during the open loop, median of 50 ms samples",
	},
	"replay-figs": {
		"setup_s":    "figures.Load of the 24-hour LA and NE traces (median of 5 loads)",
		"latency_ms": "wall of one full figure + ablation + claims set, fast quartile of the sets",
		"work_per_s": "full sets per second at that set time (1 / latency)",
		"rss_mb":     "resident set of the workload process, median of 50 ms samples",
	},
}

// issueAlias maps the metric names ISSUE 11 and later issues use onto the
// (workload, generic metric) pair that carries the number; Scale converts
// the generic value, Invert takes 1000/value (ms per op -> ops per second).
type issueAlias struct {
	Name, Unit, Workload, Metric string
	Scale                        float64
	Invert                       bool
}

var issueAliases = []issueAlias{
	{"run_s", "s", "la-cold", "latency_ms", 1e-3, false},
	{"sweep_s", "s", "policy-sweep", "latency_ms", 1e-3, false},
	{"replay_specs_per_s", "1/s", "store-replay", "work_per_s", 1, false},
	{"restore_specs_per_s", "1/s", "store-replay", "latency_ms", 1, true},
	{"hot_req_per_s", "1/s", "serve-hot", "work_per_s", 1, false},
	{"hot_p50_us", "us", "serve-hot", "latency_ms", 1e3, false},
	{"figsets_per_s", "1/s", "replay-figs", "work_per_s", 1, false},
}

type layerDef struct {
	metricDef
	Home  string // workload whose traced run measures it ("*" = every workload)
	Moves string // workload -> end-to-end metric it should move
}

func ld(name, unit, better, home, moves string) layerDef {
	return layerDef{metricDef{Name: name, Unit: unit, Better: better}, home, moves}
}

// perLayer lists the traced pass's metrics, layer = module name. A metric
// reads 0 in the traced run of a workload other than its home (counters
// shared by two workloads are real values on both).
var perLayer = []layerDef{
	ld("chemistry.column_us", "us", "lower", "la-cold", "la-cold latency_ms (about 3/4 of it); policy-sweep latency_ms"),
	ld("chemistry.mflops", "Mflop/s", "higher", "la-cold", "la-cold latency_ms; policy-sweep latency_ms"),
	ld("chemistry.flops", "count", "lower", "la-cold", "with chemistry.mflops gives chemistry.est_busy_s"),
	ld("chemistry.est_busy_s", "s", "lower", "la-cold", "la-cold latency_ms at one worker"),
	ld("transport.layer_step_us", "us", "lower", "la-cold", "la-cold latency_ms; policy-sweep latency_ms"),
	ld("transport.mflops", "Mflop/s", "higher", "la-cold", "la-cold latency_ms; policy-sweep latency_ms"),
	ld("transport.flops", "count", "lower", "la-cold", "with transport.mflops gives transport.est_busy_s"),
	ld("transport.est_busy_s", "s", "lower", "la-cold", "la-cold latency_ms at one worker"),
	ld("fx.redist_cycle_ms", "ms", "lower", "la-cold", "la-cold latency_ms"),
	ld("fx.redist_gbps", "GB/s", "higher", "la-cold", "la-cold latency_ms (computed from array sizes)"),
	ld("fx.redist_count", "count", "lower", "la-cold", "la-cold latency_ms"),
	ld("fx.est_busy_s", "s", "lower", "la-cold", "la-cold latency_ms"),
	ld("fx.engine_speedup", "ratio", "higher", "la-cold", "la-cold latency_ms: share of a kernel gain that survives at N workers"),
	ld("fx.engine_chunks", "count", "lower", "la-cold", "la-cold latency_ms"),
	ld("fx.engine_runs", "count", "lower", "la-cold", "la-cold latency_ms"),
	ld("meteo.hour_gen_ms", "ms", "lower", "la-cold", "la-cold latency_ms (small)"),
	ld("meteo.est_busy_s", "s", "lower", "la-cold", "la-cold latency_ms (small)"),
	ld("hourio.in_encode_mbps", "MB/s", "higher", "la-cold", "la-cold latency_ms"),
	ld("hourio.in_decode_mbps", "MB/s", "higher", "la-cold", "la-cold latency_ms (pipelined runs)"),
	ld("hourio.snap_write_mbps", "MB/s", "higher", "la-cold", "la-cold latency_ms; policy-sweep latency_ms (checkpoints)"),
	ld("hourio.snap_read_mbps", "MB/s", "higher", "la-cold", "store-replay work_per_s and latency_ms (checkpoint decode)"),
	ld("hourio.in_bytes", "count", "lower", "la-cold", "la-cold latency_ms"),
	ld("hourio.out_bytes", "count", "lower", "la-cold", "la-cold latency_ms"),
	ld("hourio.est_busy_s", "s", "lower", "la-cold", "la-cold latency_ms"),
	ld("core.hour_p50_s", "s", "lower", "la-cold", "la-cold latency_ms"),
	ld("core.hour_max_s", "s", "lower", "la-cold", "la-cold latency_ms"),
	ld("core.serial_s", "s", "lower", "la-cold", "la-cold latency_ms: the same run at HostWorkers 1"),
	ld("core.unexplained_share", "ratio", "lower", "la-cold", "la-cold latency_ms: large means the ladder is missing a rung"),
	ld("core.replay_la24_us", "us", "lower", "replay-figs", "replay-figs work_per_s; store-replay work_per_s"),
	ld("dist.plan_us", "us", "lower", "replay-figs", "replay-figs work_per_s; store-replay work_per_s"),
	ld("perfmodel.predict_us", "us", "lower", "replay-figs", "replay-figs work_per_s; serve-hot work_per_s"),
	ld("perfmodel.cost_estimate_us", "us", "lower", "serve-hot", "serve-hot work_per_s (every Submit prices its spec)"),
	ld("figures.all_ms", "ms", "lower", "replay-figs", "replay-figs work_per_s"),
	ld("figures.ablations_ms", "ms", "lower", "replay-figs", "replay-figs work_per_s"),
	ld("figures.claims_ms", "ms", "lower", "replay-figs", "replay-figs work_per_s"),
	ld("scenario.config_ms", "ms", "lower", "store-replay", "store-replay work_per_s (the dataset is rebuilt per job)"),
	ld("scenario.hash_us", "us", "lower", "store-replay", "store-replay work_per_s and latency_ms"),
	ld("store.put_checkpoint_ms", "ms", "lower", "store-replay", "policy-sweep latency_ms"),
	ld("store.get_checkpoint_ms", "ms", "lower", "store-replay", "store-replay work_per_s; policy-sweep latency_ms"),
	ld("store.put_result_ms", "ms", "lower", "store-replay", "store-replay work_per_s; policy-sweep latency_ms"),
	ld("store.get_result_ms", "ms", "lower", "store-replay", "store-replay latency_ms"),
	ld("store.put_record_ms", "ms", "lower", "store-replay", "policy-sweep latency_ms"),
	ld("store.get_record_ms", "ms", "lower", "store-replay", "store-replay work_per_s"),
	ld("store.put_checkpoint_mem_ms", "ms", "lower", "store-replay", "codec share of store.put_checkpoint_ms"),
	ld("store.get_checkpoint_mem_ms", "ms", "lower", "store-replay", "codec share of store.get_checkpoint_ms"),
	ld("store.put_result_mem_ms", "ms", "lower", "store-replay", "codec share of store.put_result_ms"),
	ld("store.get_result_mem_ms", "ms", "lower", "store-replay", "codec share of store.get_result_ms"),
	ld("store.put_record_mem_ms", "ms", "lower", "store-replay", "codec share of store.put_record_ms"),
	ld("store.get_record_mem_ms", "ms", "lower", "store-replay", "codec share of store.get_record_ms"),
	ld("store.hits", "count", "higher", "policy-sweep,store-replay", "must repeat exactly"),
	ld("store.misses", "count", "lower", "policy-sweep,store-replay", "exact on policy-sweep; on store-replay one more per queue-full Submit retry of the sweep engine, so it moves by a few"),
	ld("store.hit_ratio", "ratio", "higher", "policy-sweep,store-replay", "hits / (hits + misses)"),
	ld("store.bytes_written", "bytes", "lower", "policy-sweep,store-replay", "policy-sweep latency_ms; store-replay work_per_s (not exact: gob writes maps in iteration order, gzip length follows)"),
	ld("sched.hit_us", "us", "lower", "serve-hot", "serve-hot work_per_s and latency_ms"),
	ld("sched.queue_wait_p50_ms", "ms", "lower", "policy-sweep,store-replay", "policy-sweep latency_ms; store-replay work_per_s"),
	ld("sched.exec_p50_ms", "ms", "lower", "policy-sweep,store-replay", "policy-sweep latency_ms; store-replay work_per_s"),
	ld("sched.warm_starts", "count", "higher", "policy-sweep,store-replay", "policy-sweep expects 4"),
	ld("sched.physics_replays", "count", "higher", "policy-sweep,store-replay", "store-replay phase A expects specs-1"),
	ld("sched.store_hits", "count", "higher", "policy-sweep,store-replay", "store-replay expects 1 in phase A plus every spec in phase B"),
	ld("sched.cache_hits", "count", "higher", "policy-sweep,store-replay", "must repeat exactly"),
	ld("sched.retries", "count", "lower", "policy-sweep,store-replay", "expects 0"),
	ld("sweep.sim_hours_ratio", "ratio", "lower", "policy-sweep", "policy-sweep latency_ms: simulated / requested hours"),
	ld("sweep.parallel_eff", "ratio", "higher", "policy-sweep", "policy-sweep latency_ms: job wall / (workers x sweep wall)"),
	ld("sweep.expand_us", "us", "lower", "policy-sweep", "policy-sweep latency_ms (768-spec grid)"),
	ld("sr.predict_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.sr_predict_p50_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.sr_predict_p99_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.runs_hit_p50_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.runs_hit_p99_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.status_p50_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.status_p99_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.predict_p50_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.predict_p99_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.metrics_p50_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.metrics_p99_us", "us", "lower", "serve-hot", "serve-hot work_per_s"),
	ld("airshedd.open_p99_us", "us", "lower", "serve-hot", "serve-hot latency_ms"),
	ld("airshedd.open_late_p99_us", "us", "lower", "serve-hot", "over 10% of the open-loop p50 invalidates the run"),
	ld("bench.trace_overhead_pct", "%", "lower", "*", "sanity: the traced pass may cost < 3%"),
}
