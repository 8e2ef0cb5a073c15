// Command bench is the repository's benchmark: five named workloads, four
// end-to-end metrics each, and an outside-in ladder of per-layer metrics.
//
//	go run ./bench                     every workload, tracing off, end-to-end table
//	go run ./bench -traced             every workload traced: per-layer table + bench/out/trace.json
//	go run ./bench -sets 2             repeatability self-check of the end-to-end pass
//	go run ./bench -compare a.json b.json
//	go run ./bench -pairs 10 -base HEAD~1
//	go run ./bench -workload la-cold -seed 1 -seconds 20 -trace 0   (what BENCHMARK.json's driver runs)
//
// It only calls exported functions of the layers and the real airshedd
// binary; no file outside bench/ knows it exists. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: long enough that la-cold,
// the workload with the longest repetition, times every hour three or four
// times, short enough that the driver's 114 runs fit its time cap.
const defaultSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print the driver's JSON result line")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		secs     = flag.Int("seconds", 0, "seconds each workload measures (default 20; 1 with -quick)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		traced   = flag.Bool("traced", false, "run the traced pass over every workload instead of the end-to-end pass")
		quick    = flag.Bool("quick", false, "smoke sizing: dataset mini, one repetition, 1 s loops (numbers mean nothing)")
		sets     = flag.Int("sets", 0, "run the end-to-end pass this many times and check the sets agree within the bounds")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
		pairs    = flag.Int("pairs", 0, "run this many alternating base/change pairs (needs -base)")
		base     = flag.String("base", "", "git ref to measure against with -pairs")
		result   = flag.String("result", "", "also write the detailed result file here")
	)
	flag.Parse()
	if *secs <= 0 {
		*secs = defaultSeconds
		if *quick {
			*secs = 1
		}
	}
	opt := options{Seed: *seed, Seconds: *secs, Quick: *quick, Traced: *traced || *trace == 1}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare old.json new.json")
			break
		}
		err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = runOne(*workload, opt, *result)
	case *pairs > 0:
		err = runPairs(*pairs, *base, opt)
	case *sets > 0:
		err = runSets(*sets, opt, *result)
	default:
		err = runPass(opt, *result)
	}
	cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	Seed    int64
	Seconds int
	Quick   bool
	Traced  bool
}

// cleanups run once at exit and on SIGINT/SIGTERM: scratch directories are
// removed and a started daemon is stopped and waited for.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

func atExit(fn func()) {
	cleanupMu.Lock()
	cleanups = append(cleanups, fn)
	cleanupMu.Unlock()
}

func cleanup() {
	cleanupMu.Lock()
	fns := cleanups
	cleanups = nil
	cleanupMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

func init() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
}

// runRecord is one workload run as kept in result files.
type runRecord struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Quick     bool             `json:"quick,omitempty"`
	Seconds   int              `json:"seconds"`
	Env       environment      `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []string         `json:"failed_checks,omitempty"`
	WallS     float64          `json:"wall_s"`
	Metrics   map[string]value `json:"metrics"`
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func writeResultFile(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// outDir is where everything the benchmark writes goes; it is in
// .gitignore and inside the checkout.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// measure runs a single workload in this process and returns its record;
// the tracer is non-nil after a traced pass.
func measure(name string, opt options) (runRecord, *tracer, error) {
	def := workloadByName(name)
	if def == nil {
		return runRecord{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	root, err := findRoot()
	if err != nil {
		return runRecord{}, nil, err
	}
	procs := benchProcs()
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return runRecord{}, nil, err
	}
	scratch, err := os.MkdirTemp(outDir(root), "run-"+name+"-")
	if err != nil {
		return runRecord{}, nil, err
	}
	atExit(func() { os.RemoveAll(scratch) })

	c := &runCtx{Root: root, Scratch: scratch, Seed: opt.Seed, Quick: opt.Quick,
		Budget: time.Duration(opt.Seconds) * time.Second, Procs: procs}
	if opt.Traced {
		c.Trace = &tracer{}
	}
	env := captureEnv(root, opt.Seed)
	start := time.Now()
	rss := sampleRSS(os.Getpid())
	o, err := def.run(c)
	if err != nil {
		return runRecord{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	self, err := rss.stop()
	if err != nil {
		return runRecord{}, nil, err
	}
	if _, ok := o.Metrics["rss_mb"]; !ok { // serve-hot reports the daemon's instead
		o.Metrics["rss_mb"] = self
	}
	o.finish(opt.Traced)
	env.LoadEnd = loadAvg1()
	return runRecord{
		Workload: name, Traced: opt.Traced, Quick: opt.Quick, Seconds: opt.Seconds, Env: env,
		Correct: len(o.Checks) == 0 && o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed,
		Checks: o.Checks, WallS: time.Since(start).Seconds(), Metrics: o.Metrics,
	}, c.Trace, nil
}

// runOne measures one workload in this process — a fresh process per
// workload keeps heap, GC state and peak RSS from leaking between them —
// and prints the human table followed by the driver's JSON line.
func runOne(name string, opt options, resultPath string) error {
	rec, tr, err := measure(name, opt)
	if err != nil {
		return err
	}
	if tr != nil {
		root, err := findRoot()
		if err != nil {
			return err
		}
		if err := writeChromeTrace(filepath.Join(outDir(root), "trace-"+name+".json"), tr.events(1)); err != nil {
			return err
		}
		// Self time per layer, from the spans alone.
		fmt.Printf("# %s: span self time by layer\n", name)
		self := tr.selfTimes()
		layers := make([]string, 0, len(self))
		for layer := range self {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		for _, layer := range layers {
			fmt.Printf("#   %-16s %10.3f s\n", layer, self[layer].Seconds())
		}
	}
	if resultPath != "" {
		if err := writeResultFile(resultPath, resultFile{Runs: []runRecord{rec}}); err != nil {
			return err
		}
	}
	printRecord(os.Stdout, rec)
	line, err := driverLine(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// driverLine is the acceptance driver's result object, printed as the last
// line of standard output.
func driverLine(rec runRecord) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]mv)}
	for name, v := range rec.Metrics {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	return json.Marshal(line)
}

// runChild runs one workload in a child process of binary self with
// working directory root and returns its detailed record.
func runChild(self, root, name string, opt options) (runRecord, error) {
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return runRecord{}, err
	}
	f, err := os.CreateTemp(outDir(root), "result-*.json")
	if err != nil {
		return runRecord{}, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	args := []string{"-workload", name, "-seed", fmt.Sprint(opt.Seed), "-seconds", fmt.Sprint(opt.Seconds), "-result", path}
	if opt.Traced {
		args = append(args, "-trace", "1")
	}
	if opt.Quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		return runRecord{}, fmt.Errorf("workload %s: %w\n%s", name, err, out)
	}
	rf, err := readResultFile(path)
	if err != nil {
		return runRecord{}, err
	}
	if len(rf.Runs) != 1 {
		return runRecord{}, fmt.Errorf("workload %s wrote %d records", name, len(rf.Runs))
	}
	return rf.Runs[0], nil
}

// runAll runs every workload once, each in a fresh child process.
func runAll(self, root string, opt options, progress bool) ([]runRecord, error) {
	var recs []runRecord
	for _, w := range workloads {
		if progress {
			fmt.Fprintf(os.Stderr, "bench: %s ...\n", w.Name)
		}
		rec, err := runChild(self, root, w.Name, opt)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// runPass is the default command: one pass over the five workloads.
func runPass(opt options, resultPath string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	recs, err := runAll(self, root, opt, true)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		printRecord(os.Stdout, rec)
	}
	if opt.Traced {
		if err := mergeTraces(root); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", filepath.Join("bench", "out", "trace.json"))
	} else {
		printAliases(os.Stdout, recs)
	}
	if resultPath == "" {
		resultPath = filepath.Join(outDir(root), "results.json")
		if opt.Traced {
			resultPath = filepath.Join(outDir(root), "results-traced.json")
		}
	}
	if err := writeResultFile(resultPath, resultFile{Runs: recs}); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", resultPath)
	for _, rec := range recs {
		if !rec.Correct {
			return fmt.Errorf("workload %s failed its correctness check", rec.Workload)
		}
	}
	return nil
}

// mergeTraces joins the per-workload trace files into bench/out/trace.json,
// one pid per workload.
func mergeTraces(root string) error {
	var all []chromeEvent
	for i, w := range workloads {
		evs, err := readChromeTrace(filepath.Join(outDir(root), "trace-"+w.Name+".json"))
		if err != nil {
			return err
		}
		for j := range evs {
			evs[j].PID = i + 1
		}
		all = append(all, evs...)
	}
	return writeChromeTrace(filepath.Join(outDir(root), "trace.json"), all)
}
