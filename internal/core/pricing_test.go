package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"airshed/internal/datasets"
	"airshed/internal/machine"
	"airshed/internal/vm"
)

// finalFingerprint hashes a concentration array by its float bits.
func finalFingerprint(conc []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range conc {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// A live run's priced fields are exactly the replay of its own trace: the
// ledger, per-kind communication and counts from the mode's replay, node
// utilization and efficiency from the data-parallel replay (the live
// driver keeps the data-schedule utilization in task mode too). Compared
// with ==, not a tolerance. The physics does not depend on the machine,
// the node count or the mode, so every run ends in one Final.
func TestLiveRunPricesAsItsReplay(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	finals := map[string]string{}
	for _, prof := range machine.PaperTrio() {
		for _, p := range []int{1, 3, 4, 16, 64} {
			for _, mode := range []Mode{DataParallel, TaskParallel} {
				if mode == TaskParallel && p < 3 {
					continue
				}
				name := fmt.Sprintf("%s/%d/%v", prof.Name, p, mode)
				res, err := Run(Config{Dataset: ds, Machine: prof, Nodes: p, Hours: 1, Mode: mode})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mr, err := Replay(res.Trace, prof, p, mode)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				dr, err := Replay(res.Trace, prof, p, DataParallel)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertPricedAs(t, name, res, mr, dr)
				finals[finalFingerprint(res.Final)] = name
			}
		}
	}
	if len(finals) != 1 {
		t.Errorf("Final differs across machines, node counts and modes: %d distinct (%v)", len(finals), finals)
	}
}

// assertPricedAs checks res's priced fields against the mode's replay mr
// and the data-parallel replay dr, bit for bit.
func assertPricedAs(t *testing.T, name string, res *Result, mr, dr *ReplayResult) {
	t.Helper()
	if res.Ledger.Machine != mr.Ledger.Machine || res.Ledger.Nodes != mr.Ledger.Nodes {
		t.Errorf("%s: ledger is for %s/%d, replay %s/%d", name,
			res.Ledger.Machine, res.Ledger.Nodes, mr.Ledger.Machine, mr.Ledger.Nodes)
	}
	if res.Ledger.Total != mr.Ledger.Total {
		t.Errorf("%s: ledger total %v, replay %v", name, res.Ledger.Total, mr.Ledger.Total)
	}
	for _, cat := range vm.Categories() {
		if res.Ledger.ByCat[cat] != mr.Ledger.ByCat[cat] {
			t.Errorf("%s: %v %v, replay %v", name, cat, res.Ledger.ByCat[cat], mr.Ledger.ByCat[cat])
		}
	}
	if len(res.CommSeconds) != len(mr.CommSeconds) || len(res.RedistCounts) != len(mr.RedistCounts) {
		t.Errorf("%s: kinds %v / %v, replay %v / %v", name,
			res.CommSeconds, res.RedistCounts, mr.CommSeconds, mr.RedistCounts)
	}
	for _, kind := range RedistKinds() {
		if res.CommSeconds[kind] != mr.CommSeconds[kind] {
			t.Errorf("%s: %s seconds %v, replay %v", name, kind, res.CommSeconds[kind], mr.CommSeconds[kind])
		}
		if res.RedistCounts[kind] != mr.RedistCounts[kind] {
			t.Errorf("%s: %s count %d, replay %d", name, kind, res.RedistCounts[kind], mr.RedistCounts[kind])
		}
	}
	if len(res.NodeUtilization) != len(dr.NodeUtilization) {
		t.Fatalf("%s: %d node utilizations, replay %d", name, len(res.NodeUtilization), len(dr.NodeUtilization))
	}
	for i, u := range res.NodeUtilization {
		if u != dr.NodeUtilization[i] {
			t.Errorf("%s: node %d utilization %v, replay %v", name, i, u, dr.NodeUtilization[i])
		}
	}
	if res.Efficiency != dr.Efficiency {
		t.Errorf("%s: efficiency %v, replay %v", name, res.Efficiency, dr.Efficiency)
	}
}

// The run works on a private copy of Config.InitialConc: the caller's
// slice comes back bit-identical.
func TestRunLeavesInitialConcUntouched(t *testing.T) {
	ds, err := datasets.Mini()
	if err != nil {
		t.Fatal(err)
	}
	init := ds.Provider.InitialConcentrations()
	want := finalFingerprint(init)
	res, err := Run(Config{Dataset: ds, Machine: machine.CrayT3E(), Nodes: 4, Hours: 1, InitialConc: init})
	if err != nil {
		t.Fatal(err)
	}
	if got := finalFingerprint(init); got != want {
		t.Error("Run wrote to Config.InitialConc")
	}
	if finalFingerprint(res.Final) == want {
		t.Error("an hour of physics left the concentrations unchanged; the check above proves nothing")
	}
}
