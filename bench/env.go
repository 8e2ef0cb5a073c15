package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is recorded in every result file so a number can be traced
// back to the machine state that produced it.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// BusyStart is the share of the machine other processes were using in
	// the quarter second before the run started.
	BusyStart float64 `json:"busy_start"`
	// Noisy marks a run started on a machine that was not idle; -compare
	// refuses to call a regression from it. ISSUE 11 defined it as a
	// 1-minute load average above the core count, but that average lags by
	// a minute: in a pass over the five workloads each one inherits the load
	// of the one before and nearly every run was flagged. The direct sample
	// says what the issue meant; the load averages are still recorded.
	Noisy bool `json:"noisy"`
}

// noisyAbove is the foreign CPU share above which a run is marked noisy.
const noisyAbove = 0.2

// benchProcs is the load the benchmark is allowed to generate: never more
// goroutines or connections than this, and GOMAXPROCS is pinned to it.
func benchProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func captureEnv(root string, seed int64) environment {
	busy := machineBusy(250 * time.Millisecond)
	return environment{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		LoadStart:  loadAvg1(),
		BusyStart:  busy,
		Noisy:      busy > noisyAbove,
	}
}

// machineBusy sleeps for d and returns the share of all CPUs that was not
// idle meanwhile, from /proc/stat (0 where it is unavailable). The caller
// is asleep, so this is other processes' use of the machine.
func machineBusy(d time.Duration) float64 {
	read := func() (idle, total float64) {
		data, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0
		}
		line, _, _ := strings.Cut(string(data), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			total += v
			if i == 3 || i == 4 { // idle, iowait
				idle += v
			}
		}
		return idle, total
	}
	idle0, total0 := read()
	time.Sleep(d)
	idle1, total1 := read()
	if total1 <= total0 {
		return 0
	}
	return 1 - (idle1-idle0)/(total1-total0)
}

// loadAvg1 is the 1-minute load average, or -1 where /proc is absent.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit names the measured commit; the acceptance driver's checkout is
// not a git repository, so "unknown" is a normal answer there.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

// rssMiB reads a process's current resident set from /proc/<pid>/statm.
func rssMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssSampler samples a process's resident set every 50 ms. The reported
// memory metric is the median of the samples: VmHWM, the one-off maximum,
// swings by a third from run to run with the timing of a single GC cycle,
// which no bound could gate. The maximum is kept as the metric's tail.
type rssSampler struct {
	stopCh  chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := rssMiB(pid); err == nil {
				s.samples = append(s.samples, v)
			}
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the rss_mb value.
func (s *rssSampler) stop() (value, error) {
	close(s.stopCh)
	<-s.done
	if len(s.samples) == 0 {
		return value{}, fmt.Errorf("no resident-set samples: /proc unavailable")
	}
	return value{Value: median(s.samples), N: len(s.samples), Tail: fmt.Sprintf("max=%.4g", quantile(s.samples, 1))}, nil
}

// findRoot walks up from the working directory to the module root (the
// directory whose go.mod declares module airshed). The benchmark reads
// testdata/ and builds ./cmd/airshedd from there, and keeps every file it
// writes under bench/out/ inside it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module airshed") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no go.mod for module airshed above the working directory; run from the repository root")
		}
		dir = parent
	}
}
