// Package scenario defines the canonical description of one Airshed run:
// which data set, which machine profile, how many nodes and hours, which
// parallelisation mode, and the physics toggles (emission controls,
// chemistry tolerance, step cap) that change the answer. A Spec is the
// shared currency between the CLIs (cmd/airshedsim) and the scenario
// service (internal/sched, cmd/airshedd): both validate requests with
// Spec.Validate and build core.Config with Spec.Config, and the service
// dedupes semantically identical requests by Spec.Hash — a stable content
// hash over the normalized fields, so "LA" and "la" (or an omitted mode
// and an explicit "data") collapse to the same cache key.
//
// Fields deliberately exclude anything that does not change the result or
// the virtual-time accounting (host goroutine parallelism, snapshot
// directories, trace file paths); those stay per-invocation options so
// the cache never splits on them.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"airshed/internal/chemistry"
	"airshed/internal/core"
	"airshed/internal/datasets"
	"airshed/internal/dist"
	"airshed/internal/machine"
	"airshed/internal/meteo"
)

// Mode strings accepted by Spec.Mode.
const (
	ModeData = "data"
	ModeTask = "task"
)

// MaxSourceGroups bounds Spec.SourceGroups: more groups than any of the
// data-set grids has cells would only produce empty partitions, and a
// huge count is a request error, not a reason to allocate.
const MaxSourceGroups = 4096

// Spec is one scenario: a complete, canonicalisable description of a run.
// The zero values of the optional fields mean "default" and normalize to
// the explicit defaults, so a minimal JSON request like
// {"dataset":"mini","machine":"t3e","nodes":4,"hours":2} is a full spec.
type Spec struct {
	// Dataset is a datasets.ByName key: "la", "ne" or "mini".
	Dataset string `json:"dataset"`
	// Machine is a machine.ByName key: "t3e", "t3d", "paragon", "gohost".
	Machine string `json:"machine"`
	// Nodes is the virtual machine size P.
	Nodes int `json:"nodes"`
	// Hours is the number of simulated hours.
	Hours int `json:"hours"`
	// StartHour is the first simulated hour (0 = midnight of day one).
	StartHour int `json:"start_hour,omitempty"`
	// Mode is "data" (Sections 2-4) or "task" (Section 5 pipeline);
	// empty means "data".
	Mode string `json:"mode,omitempty"`
	// NOxScale and VOCScale multiply the anthropogenic NOx and organic
	// emission shares — the emission-control-strategy knobs the paper
	// names as Airshed's purpose. Zero means 1.0 (base inventory).
	NOxScale float64 `json:"nox_scale,omitempty"`
	VOCScale float64 `json:"voc_scale,omitempty"`
	// ControlStartHour is the absolute hour at which the emission
	// controls activate (a curtailment starting mid-run); before it the
	// base inventory applies. Zero means the controls are active for the
	// whole run. All control variants of a baseline then share the
	// physics of hours [StartHour, ControlStartHour) exactly, which is
	// what the sweep engine's warm starts exploit.
	ControlStartHour int `json:"control_start_hour,omitempty"`
	// ChemRelTol overrides the Young-Boris relative tolerance; zero means
	// chemistry.DefaultConfig().RelTol.
	ChemRelTol float64 `json:"chem_rel_tol,omitempty"`
	// MaxStepsPerHour caps the runtime-determined step count; zero means
	// the core default.
	MaxStepsPerHour int `json:"max_steps_per_hour,omitempty"`

	// SourceGroups partitions the grid cells into that many contiguous
	// source groups (dist.BlockOwner blocks in cell order) for
	// source–receptor perturbation runs; zero means no partition. When
	// set, SourceGroup selects the perturbed group (0-based) and
	// GroupNOxScale/GroupVOCScale multiply that group's anthropogenic
	// NOx and organic emission shares on top of NOxScale/VOCScale —
	// scaling every group by s is (numerically) the same run as scaling
	// NOxScale by s, which is the additivity the SR matrix exploits.
	// Unit group scales collapse to SourceGroups=0, so no-op
	// perturbations share the base hash.
	SourceGroups int `json:"source_groups,omitempty"`
	// SourceGroup is the perturbed group index in [0, SourceGroups).
	SourceGroup int `json:"source_group,omitempty"`
	// GroupNOxScale and GroupVOCScale multiply the perturbed group's
	// emission shares. Zero means 1.0 (no perturbation).
	GroupNOxScale float64 `json:"group_nox_scale,omitempty"`
	GroupVOCScale float64 `json:"group_voc_scale,omitempty"`
}

// Normalize returns the canonical form of the spec: keys lower-cased,
// empty mode resolved to "data", zero scale factors resolved to 1.0.
// Hash and the scheduler's dedup operate on the normalized form, so
// callers may pass un-normalized specs everywhere.
func (s Spec) Normalize() Spec {
	s.Dataset = strings.ToLower(strings.TrimSpace(s.Dataset))
	s.Machine = strings.ToLower(strings.TrimSpace(s.Machine))
	s.Mode = strings.ToLower(strings.TrimSpace(s.Mode))
	if s.Mode == "" {
		s.Mode = ModeData
	}
	if s.NOxScale == 0 {
		s.NOxScale = 1.0
	}
	if s.VOCScale == 0 {
		s.VOCScale = 1.0
	}
	// ControlStartHour only means something when there are controls to
	// delay and the delay reaches into the run; otherwise it collapses to
	// zero so no-op variants share one hash.
	if (s.NOxScale == 1.0 && s.VOCScale == 1.0) || s.ControlStartHour <= s.StartHour {
		s.ControlStartHour = 0
	}
	if s.GroupNOxScale == 0 {
		s.GroupNOxScale = 1.0
	}
	if s.GroupVOCScale == 0 {
		s.GroupVOCScale = 1.0
	}
	// A group perturbation with unit scales is physically the base run:
	// collapse the partition so it shares the base hash. (Non-unit group
	// scales without a partition are left alone for Validate to reject.)
	if s.GroupNOxScale == 1.0 && s.GroupVOCScale == 1.0 {
		s.SourceGroups, s.SourceGroup = 0, 0
	}
	return s
}

// Validate reports the first problem with the (normalized) spec as a
// single-line error suitable for CLI and HTTP 400 messages. It is cheap:
// no dataset or machine is constructed.
func (s Spec) Validate() error {
	n := s.Normalize()
	switch {
	case n.Dataset == "":
		return fmt.Errorf("scenario: missing dataset (known: %s)", strings.Join(datasets.Names(), ", "))
	case !datasets.Known(n.Dataset):
		return fmt.Errorf("scenario: unknown dataset %q (known: %s)", s.Dataset, strings.Join(datasets.Names(), ", "))
	case n.Machine == "":
		return fmt.Errorf("scenario: missing machine (known: %s)", strings.Join(machine.Names(), ", "))
	case n.Nodes <= 0:
		return fmt.Errorf("scenario: nodes must be positive, got %d", n.Nodes)
	case n.Hours <= 0:
		return fmt.Errorf("scenario: hours must be positive, got %d", n.Hours)
	case n.StartHour < 0:
		return fmt.Errorf("scenario: start_hour must be non-negative, got %d", n.StartHour)
	case n.Mode != ModeData && n.Mode != ModeTask:
		return fmt.Errorf("scenario: unknown mode %q (data or task)", s.Mode)
	case n.Mode == ModeTask && n.Nodes < 3:
		return fmt.Errorf("scenario: task mode needs at least 3 nodes, got %d", n.Nodes)
	case n.NOxScale <= 0 || n.VOCScale <= 0:
		return fmt.Errorf("scenario: emission scales must be positive, got nox=%g voc=%g", n.NOxScale, n.VOCScale)
	case s.ControlStartHour < 0:
		return fmt.Errorf("scenario: control_start_hour must be non-negative, got %d", s.ControlStartHour)
	case n.ChemRelTol < 0:
		return fmt.Errorf("scenario: chem_rel_tol must be non-negative, got %g", n.ChemRelTol)
	case n.MaxStepsPerHour < 0:
		return fmt.Errorf("scenario: max_steps_per_hour must be non-negative, got %d", n.MaxStepsPerHour)
	case n.GroupNOxScale <= 0 || n.GroupVOCScale <= 0:
		return fmt.Errorf("scenario: group scales must be positive, got group_nox=%g group_voc=%g",
			n.GroupNOxScale, n.GroupVOCScale)
	case n.SourceGroups < 0 || n.SourceGroups > MaxSourceGroups:
		return fmt.Errorf("scenario: source_groups must be in [0, %d], got %d", MaxSourceGroups, n.SourceGroups)
	case n.SourceGroups == 0 && (n.GroupNOxScale != 1.0 || n.GroupVOCScale != 1.0):
		return fmt.Errorf("scenario: group scales need source_groups > 0")
	case n.SourceGroups > 0 && (n.SourceGroup < 0 || n.SourceGroup >= n.SourceGroups):
		return fmt.Errorf("scenario: source_group must be in [0, %d), got %d", n.SourceGroups, n.SourceGroup)
	case n.SourceGroups > 0 && n.ControlStartHour > 0:
		return fmt.Errorf("scenario: source-group perturbations are whole-run; combine with control_start_hour is not supported")
	}
	if _, err := machine.ByName(n.Machine); err != nil {
		return fmt.Errorf("scenario: unknown machine %q (known: %s)", s.Machine, strings.Join(machine.Names(), ", "))
	}
	return nil
}

// Hash returns the stable content hash of the normalized spec: a
// hex-encoded SHA-256 over a canonical field encoding. Two specs hash
// equal exactly when they describe the same run, which is the dedup and
// cache-key contract the scheduler relies on.
func (s Spec) Hash() string {
	n := s.Normalize()
	h := sha256.New()
	// One "key=value" line per field, fixed order and formatting. New
	// fields must append lines (never reorder) and give their zero value
	// the historical meaning, or every existing cache key changes.
	fmt.Fprintf(h, "dataset=%s\n", n.Dataset)
	fmt.Fprintf(h, "machine=%s\n", n.Machine)
	fmt.Fprintf(h, "nodes=%d\n", n.Nodes)
	fmt.Fprintf(h, "hours=%d\n", n.Hours)
	fmt.Fprintf(h, "start_hour=%d\n", n.StartHour)
	fmt.Fprintf(h, "mode=%s\n", n.Mode)
	fmt.Fprintf(h, "nox_scale=%g\n", n.NOxScale)
	fmt.Fprintf(h, "voc_scale=%g\n", n.VOCScale)
	fmt.Fprintf(h, "chem_rel_tol=%g\n", n.ChemRelTol)
	fmt.Fprintf(h, "max_steps_per_hour=%d\n", n.MaxStepsPerHour)
	fmt.Fprintf(h, "control_start_hour=%d\n", n.ControlStartHour)
	// The source-group lines appear only for an active perturbation
	// (Normalize collapses the inactive case to SourceGroups == 0), so
	// every pre-existing spec keeps its historical hash. The non-empty
	// encoding is unambiguous: it always carries all four fields.
	if n.SourceGroups > 0 {
		fmt.Fprintf(h, "source_groups=%d\n", n.SourceGroups)
		fmt.Fprintf(h, "source_group=%d\n", n.SourceGroup)
		fmt.Fprintf(h, "group_nox_scale=%g\n", n.GroupNOxScale)
		fmt.Fprintf(h, "group_voc_scale=%g\n", n.GroupVOCScale)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EndHour is the first hour past the run: StartHour + Hours.
func (s Spec) EndHour() int {
	n := s.Normalize()
	return n.StartHour + n.Hours
}

// PhysicsPrefixHash identifies the physical state of the run truncated at
// absolute hour k (exclusive): the hash of every field that changes the
// concentrations over hours [StartHour, k), and nothing else. Machine,
// node count and execution mode are deliberately excluded — the numerics
// are bit-identical across them (the work trace is machine-independent),
// so runs differing only in those fields share every prefix. Emission
// controls contribute only when they are active inside the prefix: a
// variant whose ControlStartHour >= k hashes identically to the baseline,
// which is exactly the checkpoint-sharing contract the sweep engine's
// warm starts rely on. k must lie in (StartHour, EndHour].
func (s Spec) PhysicsPrefixHash(k int) string {
	n := s.Normalize()
	nox, voc, cs := n.NOxScale, n.VOCScale, n.ControlStartHour
	if cs >= k {
		// The controls have not activated anywhere in [StartHour, k):
		// the prefix is pure baseline physics.
		nox, voc, cs = 1.0, 1.0, 0
	}
	h := sha256.New()
	fmt.Fprintf(h, "physics-prefix\n")
	fmt.Fprintf(h, "dataset=%s\n", n.Dataset)
	fmt.Fprintf(h, "start_hour=%d\n", n.StartHour)
	fmt.Fprintf(h, "end_hour=%d\n", k)
	fmt.Fprintf(h, "nox_scale=%g\n", nox)
	fmt.Fprintf(h, "voc_scale=%g\n", voc)
	fmt.Fprintf(h, "control_start_hour=%d\n", cs)
	fmt.Fprintf(h, "chem_rel_tol=%g\n", n.ChemRelTol)
	fmt.Fprintf(h, "max_steps_per_hour=%d\n", n.MaxStepsPerHour)
	// Source-group perturbations are active from StartHour, so they are
	// part of every prefix's physics. Conditional for the same
	// hash-stability reason as in Hash.
	if n.SourceGroups > 0 {
		fmt.Fprintf(h, "source_groups=%d\n", n.SourceGroups)
		fmt.Fprintf(h, "source_group=%d\n", n.SourceGroup)
		fmt.Fprintf(h, "group_nox_scale=%g\n", n.GroupNOxScale)
		fmt.Fprintf(h, "group_voc_scale=%g\n", n.GroupVOCScale)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// PrefixSpec is the runnable scenario whose complete run produces exactly
// the physics prefix [StartHour, k) of s: hours truncated, controls
// canonicalised away when they only activate at or after k. The sweep
// engine schedules it once as the seed of a warm-start family. Machine,
// nodes and mode are inherited (they do not affect the physics).
func (s Spec) PrefixSpec(k int) Spec {
	n := s.Normalize()
	n.Hours = k - n.StartHour
	if n.ControlStartHour >= k {
		n.NOxScale, n.VOCScale, n.ControlStartHour = 1.0, 1.0, 0
	}
	return n.Normalize()
}

// PrefixBoundaries lists the absolute hours k at which this spec's physics
// prefix [StartHour, k) can coincide with another spec's: the full run,
// plus the control-activation hour when it falls strictly inside the run
// (every control variant shares the baseline up to there). These are the
// prefixes worth seeding once (sweep.SeedSpecs) and the ones that tie specs
// into one warm-start family (fleet packing).
func (s Spec) PrefixBoundaries() []int {
	n := s.Normalize()
	ks := []int{n.EndHour()}
	if cs := n.ControlStartHour; cs > n.StartHour && cs < n.EndHour() {
		ks = append(ks, cs)
	}
	return ks
}

// CoreMode converts the spec's mode string to the core enum. The spec
// must have been validated.
func (s Spec) CoreMode() core.Mode {
	if s.Normalize().Mode == ModeTask {
		return core.TaskParallel
	}
	return core.DataParallel
}

// Config validates the spec and assembles the core.Config it describes:
// the dataset is constructed (with emission scales applied to its
// inventory when not 1.0), the machine profile resolved, and the physics
// toggles translated. Per-invocation options that do not affect results
// (HostWorkers, SnapshotDir) are left zero for the caller to set.
func (s Spec) Config() (core.Config, error) {
	if err := s.Validate(); err != nil {
		return core.Config{}, err
	}
	n := s.Normalize()
	ds, err := datasets.ByName(n.Dataset)
	if err != nil {
		return core.Config{}, err
	}
	var controlProv *meteo.Synthetic
	if n.NOxScale != 1.0 || n.VOCScale != 1.0 || n.SourceGroups > 0 {
		scn := ds.Provider.Scenario()
		scn.NOxScale *= n.NOxScale
		scn.VOCScale *= n.VOCScale
		if n.NOxScale != 1.0 || n.VOCScale != 1.0 {
			scn.Name = fmt.Sprintf("%s (NOx x%.2f, VOC x%.2f)", scn.Name, n.NOxScale, n.VOCScale)
		}
		if n.SourceGroups > 0 {
			// Source-group perturbation: the group's cells are the
			// contiguous BLOCK interval of the cell index space, so the
			// partition is a pure function of (grid, group count) —
			// exactly what the SR matrix key relies on.
			mask := make([]bool, ds.Grid().NumCells())
			iv := dist.BlockOwner(len(mask), n.SourceGroups, n.SourceGroup)
			for i := iv.Lo; i < iv.Hi; i++ {
				mask[i] = true
			}
			scn.SourceMask = mask
			scn.GroupNOx = n.GroupNOxScale
			scn.GroupVOC = n.GroupVOCScale
			scn.Name = fmt.Sprintf("%s (group %d/%d NOx x%.2f, VOC x%.2f)",
				scn.Name, n.SourceGroup, n.SourceGroups, n.GroupNOxScale, n.GroupVOCScale)
		}
		prov, err := meteo.NewSynthetic(scn, ds.Grid(), ds.Mechanism(), ds.Geometry())
		if err != nil {
			return core.Config{}, err
		}
		if n.ControlStartHour > 0 {
			// Delayed controls: the base inventory drives hours before
			// ControlStartHour, the scaled one from it on. (Validate
			// rejects delayed controls combined with source groups, so
			// this branch never carries a mask.)
			controlProv = prov
		} else {
			ds.Provider = prov
		}
	}
	prof, err := machine.ByName(n.Machine)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Dataset:          ds,
		Machine:          prof,
		Nodes:            n.Nodes,
		Hours:            n.Hours,
		StartHour:        n.StartHour,
		Mode:             s.CoreMode(),
		MaxStepsPerHour:  n.MaxStepsPerHour,
		ControlStartHour: n.ControlStartHour,
		ControlProvider:  controlProv,
	}
	if n.ChemRelTol > 0 {
		cc := chemistry.DefaultConfig()
		cc.RelTol = n.ChemRelTol
		cfg.Chemistry = &cc
	}
	return cfg, nil
}

// String renders the spec compactly for logs and reports.
func (s Spec) String() string {
	n := s.Normalize()
	out := fmt.Sprintf("%s/%s p=%d h=%d mode=%s", n.Dataset, n.Machine, n.Nodes, n.Hours, n.Mode)
	if n.StartHour != 0 {
		out += fmt.Sprintf(" start=%d", n.StartHour)
	}
	if n.NOxScale != 1 || n.VOCScale != 1 {
		out += fmt.Sprintf(" nox=%g voc=%g", n.NOxScale, n.VOCScale)
		if n.ControlStartHour > 0 {
			out += fmt.Sprintf(" from_hour=%d", n.ControlStartHour)
		}
	}
	if n.SourceGroups > 0 {
		out += fmt.Sprintf(" group=%d/%d gnox=%g gvoc=%g",
			n.SourceGroup, n.SourceGroups, n.GroupNOxScale, n.GroupVOCScale)
	}
	return out
}
