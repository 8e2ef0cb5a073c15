// Package core implements the Airshed simulation driver: the hourly loop
// of the paper's Figure 1,
//
//	DO i = 1, nhrs
//	  CALL inputhour(A)
//	  CALL pretrans(A)
//	  DO j = 1, nsteps
//	    CALL transport(A)
//	    CALL chemistry(A)
//	    CALL transport(A)
//	  ENDDO
//	  CALL outputhour(A)
//	ENDDO
//
// computed on one canonical concentration array. The driver runs the real
// numerics once and records a machine-independent work trace; Replay
// prices a trace for any machine profile, node count and execution mode
// (data-parallel with the paper's distribution cycle D_Repl -> D_Trans ->
// D_Chem -> D_Repl, or task-parallel with the 3-stage pipelined I/O of
// Section 5). Price applies it to a finished run, which is how the
// benchmark harness sweeps Figures 2-9 without recomputing chemistry.
package core

import (
	"fmt"

	"airshed/internal/chemistry"
	"airshed/internal/datasets"
	"airshed/internal/machine"
	"airshed/internal/meteo"
)

// Mode selects the parallelisation strategy.
type Mode int

const (
	// DataParallel is the pure data-parallel implementation of
	// Sections 2-4: I/O sequential, transport over layers, chemistry
	// over cells.
	DataParallel Mode = iota
	// TaskParallel adds the pipelined task parallelism of Section 5:
	// input processing, main computation and output processing run as
	// three pipelined tasks on disjoint node subgroups.
	TaskParallel
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case DataParallel:
		return "data-parallel"
	case TaskParallel:
		return "task+data-parallel"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config describes one simulation run.
type Config struct {
	// Dataset is the input configuration (datasets.LA(), datasets.NE()).
	Dataset *datasets.Dataset
	// Machine is the virtual machine profile the run is priced on.
	Machine *machine.Profile
	// Nodes is the virtual machine size P.
	Nodes int
	// Hours is the number of simulated hours (the paper runs 24).
	Hours int
	// Mode selects data-parallel or task-parallel execution.
	Mode Mode
	// Chemistry tunes the Young-Boris integrator; zero value means
	// chemistry.DefaultConfig().
	Chemistry *chemistry.Config
	// SnapshotDir, when non-empty, makes outputhour write real snapshot
	// files there (hour_NNN.snap); otherwise output volume is counted
	// without touching the filesystem.
	SnapshotDir string
	// SnapshotFunc, when non-nil, receives every hourly snapshot after
	// outputhour: the absolute hour and the run's concentration array
	// (canonical layout). The slice is updated by the next hour, so
	// implementations must copy (or serialise) before returning. Errors
	// abort the run. The scheduler uses this to feed the persistent
	// checkpoint store.
	SnapshotFunc func(hour int, conc []float64) error
	// ControlProvider, when non-nil, replaces Dataset.Provider for hours
	// >= ControlStartHour: the mechanism behind delayed emission
	// controls (scenario.Spec.ControlStartHour). Hours before it use the
	// base provider, so every control variant shares the baseline
	// physics prefix exactly.
	ControlProvider  *meteo.Synthetic
	ControlStartHour int
	// StartHour is the first simulated hour (0 = midnight of day one).
	// Hours counts from here, so a run with StartHour 8, Hours 4 covers
	// hours 8-11. Combined with InitialConc this restarts a simulation
	// from a snapshot.
	StartHour int
	// InitialConc, when non-nil, replaces the data set's initial
	// concentrations (canonical layout, length Shape.Len()); used to
	// restart from an hourly snapshot.
	InitialConc []float64
	// Ignored: every run executes on the host engine. The field survives
	// only because the frozen bench/ sources still set it, and goes away
	// with the next benchmark PR.
	GoParallel bool
	// HostWorkers sizes the host execution engine: 0 (the default)
	// schedules work chunks onto the process-wide shared engine
	// (GOMAXPROCS workers); > 0 runs this simulation on a dedicated engine
	// with that many workers. One worker executes every chunk in index
	// order on one goroutine — the serial reference. The engine decouples
	// host parallelism from the virtual node count — a nodes=1 paper
	// baseline still uses every core — and its deterministic reduction
	// keeps results and ledgers bit-identical at any worker count.
	HostWorkers int
	// MaxStepsPerHour caps the runtime-determined step count (safety
	// valve; 0 means the default cap of 6).
	MaxStepsPerHour int
	// Ignored: the hour loop runs its stages inline. The field survives
	// only because the frozen bench/ sources still set it, and goes away
	// with the next benchmark PR.
	PipelineDepth int
	// OnHourEnd, when non-nil, is called after every simulated hour's
	// output accounting with that hour's summary — the streaming hook
	// the scenario service uses to emit per-hour progress while the run
	// is still in flight. Called from the driver goroutine in hour
	// order, after the hour's snapshot is written and its SnapshotFunc
	// has returned. Implementations must not block for long (they ride
	// the hour loop).
	OnHourEnd func(HourSummary)
	// DisableSentinels turns off the per-hour physics sentinels (the
	// NaN/Inf/negative scan of the concentration array and the domain-total
	// mass ledger). Sentinels are on by default: a kernel that goes
	// non-physical fails the run with a typed *PhysicsError before the
	// bad hour is persisted anywhere, instead of serving garbage.
	DisableSentinels bool
	// MassDriftBound is the mass-ledger trip factor: a domain-total
	// change beyond ×bound (either direction) across one hour fails the
	// run with PhysicsMassDrift. 0 means the default (10); values in
	// (0, 1] are invalid.
	MassDriftBound float64
}

// HourSummary is the per-hour progress record OnHourEnd receives: the
// diagnostics of one completed simulated hour, available as soon as the
// hour's output accounting is done rather than at end of run.
type HourSummary struct {
	// Hour is the absolute simulated hour.
	Hour int
	// PeakO3 is the hour's ground-layer ozone maximum (ppm) at PeakCell.
	PeakO3   float64
	PeakCell int
	// Steps is the hour's runtime-determined inner step count.
	Steps int
	// InBytes and OutBytes are the hour's recorded I/O volumes.
	InBytes, OutBytes int64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Dataset == nil:
		return fmt.Errorf("core: Config.Dataset is nil")
	case c.Machine == nil:
		return fmt.Errorf("core: Config.Machine is nil")
	case c.Nodes <= 0:
		return fmt.Errorf("core: Nodes must be positive, got %d", c.Nodes)
	case c.Hours <= 0:
		return fmt.Errorf("core: Hours must be positive, got %d", c.Hours)
	case c.Mode == TaskParallel && c.Nodes < 3:
		return fmt.Errorf("core: task-parallel mode needs at least 3 nodes, got %d", c.Nodes)
	case c.MaxStepsPerHour < 0:
		return fmt.Errorf("core: MaxStepsPerHour must be non-negative")
	case c.StartHour < 0:
		return fmt.Errorf("core: StartHour must be non-negative, got %d", c.StartHour)
	case c.ControlStartHour < 0:
		return fmt.Errorf("core: ControlStartHour must be non-negative, got %d", c.ControlStartHour)
	case c.HostWorkers < 0:
		return fmt.Errorf("core: HostWorkers must be non-negative, got %d", c.HostWorkers)
	case c.MassDriftBound < 0 || (c.MassDriftBound > 0 && c.MassDriftBound <= 1):
		return fmt.Errorf("core: MassDriftBound must be 0 (default) or > 1, got %g", c.MassDriftBound)
	}
	if c.InitialConc != nil && len(c.InitialConc) != c.Dataset.Shape.Len() {
		return fmt.Errorf("core: InitialConc has %d values, want %d", len(c.InitialConc), c.Dataset.Shape.Len())
	}
	if c.Chemistry != nil {
		if err := c.Chemistry.Validate(); err != nil {
			return err
		}
	}
	return c.Machine.Validate()
}

// chemConfig resolves the chemistry configuration.
func (c *Config) chemConfig() chemistry.Config {
	if c.Chemistry != nil {
		return *c.Chemistry
	}
	return chemistry.DefaultConfig()
}

// maxSteps resolves the per-hour step cap.
func (c *Config) maxSteps() int {
	if c.MaxStepsPerHour > 0 {
		return c.MaxStepsPerHour
	}
	return 6
}
