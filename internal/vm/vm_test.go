package vm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"airshed/internal/machine"
)

func newTestVM(t testing.TB, p int) *Machine {
	t.Helper()
	m, err := New(machine.CrayT3E(), p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(machine.CrayT3E(), 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(machine.CrayT3E(), -4); err == nil {
		t.Error("negative nodes accepted")
	}
	if _, err := New(&machine.Profile{}, 4); err == nil {
		t.Error("invalid profile accepted")
	}
	m := newTestVM(t, 7)
	if m.P() != 7 {
		t.Errorf("P() = %d", m.P())
	}
	if m.Profile().Name != "Cray T3E" {
		t.Errorf("Profile() = %v", m.Profile())
	}
}

func TestBarrierTakesMax(t *testing.T) {
	m := newTestVM(t, 4)
	m.ChargeCompute(0, CatChemistry, 1e6)
	m.ChargeCompute(1, CatChemistry, 3e6)
	m.ChargeCompute(2, CatChemistry, 2e6)
	want := m.Profile().ComputeTime(3e6)
	got := m.Barrier()
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("Barrier() = %g, want %g", got, want)
	}
	for n := 0; n < 4; n++ {
		if math.Abs(m.Clock(n)-want) > 1e-15 {
			t.Errorf("node %d clock %g after barrier, want %g", n, m.Clock(n), want)
		}
	}
}

func TestBarrierGroupLeavesOthers(t *testing.T) {
	m := newTestVM(t, 6)
	m.ChargeCompute(0, CatIO, 5e6)
	m.ChargeCompute(4, CatChemistry, 1e6)
	m.BarrierGroup([]int{0, 1, 2})
	if m.Clock(1) != m.Clock(0) || m.Clock(2) != m.Clock(0) {
		t.Error("group clocks not synchronised")
	}
	if m.Clock(4) >= m.Clock(0) {
		t.Error("outside node affected by group barrier")
	}
	if m.Clock(5) != 0 {
		t.Error("untouched node moved")
	}
}

func TestCategoryAccounting(t *testing.T) {
	m := newTestVM(t, 2)
	m.ChargeCompute(0, CatChemistry, 2e6)
	m.ChargeCompute(0, CatTransport, 1e6)
	m.ChargeCommAs(1, CatComm, 3, 1000, 500)
	m.ChargeIO(0, 4096)

	chem := m.Profile().ComputeTime(2e6)
	if got := m.CategorySeconds(CatChemistry); math.Abs(got-chem) > 1e-15 {
		t.Errorf("chemistry = %g, want %g", got, chem)
	}
	comm := m.Profile().CommTime(3, 1000, 500)
	if got := m.CategorySeconds(CatComm); math.Abs(got-comm) > 1e-15 {
		t.Errorf("comm = %g, want %g", got, comm)
	}
	io := m.Profile().IOTime(4096)
	if got := m.CategorySeconds(CatIO); math.Abs(got-io) > 1e-15 {
		t.Errorf("io = %g, want %g", got, io)
	}
	// Per-node category view.
	if got := m.spent[1][CatChemistry]; got != 0 {
		t.Errorf("node 1 chemistry = %g, want 0", got)
	}
}

func TestLedgerSumsAndString(t *testing.T) {
	m := newTestVM(t, 2)
	m.ChargeCompute(0, CatChemistry, 1e7)
	m.ChargeCompute(1, CatTransport, 2e6)
	m.Barrier()
	l := m.Ledger()
	if l.Nodes != 2 || l.Machine != "Cray T3E" {
		t.Errorf("ledger header wrong: %+v", l)
	}
	if l.Total != m.Elapsed() {
		t.Errorf("ledger total %g != elapsed %g", l.Total, m.Elapsed())
	}
	s := l.String()
	for _, want := range []string{"chemistry", "transport", "Cray T3E"} {
		if !strings.Contains(s, want) {
			t.Errorf("ledger string missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "popexp") {
		t.Error("ledger string should omit zero categories")
	}
}

func TestNegativeChargePanics(t *testing.T) {
	m := newTestVM(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative charge did not panic")
		}
	}()
	m.ChargeSeconds(0, CatOther, -1)
}

func TestAdvanceTo(t *testing.T) {
	m := newTestVM(t, 3)
	m.ChargeSeconds(0, CatOther, 5)
	m.AdvanceTo([]int{1, 2}, 3)
	if m.Clock(1) != 3 || m.Clock(2) != 3 {
		t.Error("AdvanceTo did not move idle nodes")
	}
	m.AdvanceTo([]int{0}, 3)
	if m.Clock(0) != 5 {
		t.Error("AdvanceTo moved a node backwards")
	}
	if got := m.GroupElapsed([]int{1, 2}); got != 3 {
		t.Errorf("GroupElapsed = %g", got)
	}
}

func TestChargeCommAsCategory(t *testing.T) {
	m := newTestVM(t, 1)
	m.ChargeCommAs(0, CatPopExp, 2, 100, 0)
	if m.CategorySeconds(CatComm) != 0 {
		t.Error("ChargeCommAs leaked into CatComm")
	}
	if m.CategorySeconds(CatPopExp) == 0 {
		t.Error("ChargeCommAs did not charge CatPopExp")
	}
}

func TestCategoriesAndStrings(t *testing.T) {
	cats := Categories()
	if len(cats) != 7 {
		t.Fatalf("Categories() returned %d", len(cats))
	}
	seen := map[string]bool{}
	for _, c := range cats {
		s := c.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate category name %q", s)
		}
		seen[s] = true
	}
	if Category(99).String() == "" {
		t.Error("out-of-range category has empty name")
	}
}

func TestAllNodes(t *testing.T) {
	m := newTestVM(t, 4)
	nodes := m.AllNodes()
	if len(nodes) != 4 {
		t.Fatalf("AllNodes() len = %d", len(nodes))
	}
	for i, n := range nodes {
		if n != i {
			t.Errorf("AllNodes()[%d] = %d", i, n)
		}
	}
}

// The BSP law: with equal per-node loads, elapsed time must be independent
// of node count (perfect parallelism), and with a single loaded node the
// barrier must stretch everyone to it.
func TestBSPLaw(t *testing.T) {
	for _, p := range []int{1, 2, 8, 32} {
		m := newTestVM(t, p)
		for n := 0; n < p; n++ {
			m.ChargeCompute(n, CatChemistry, 1e6)
		}
		total := m.Barrier()
		want := m.Profile().ComputeTime(1e6)
		if math.Abs(total-want) > 1e-15 {
			t.Errorf("p=%d: balanced phase took %g, want %g", p, total, want)
		}
	}
}

func TestUtilization(t *testing.T) {
	m := newTestVM(t, 4)
	// Node 0 works 4s, others 1s, then a barrier stretches all to 4s.
	m.ChargeSeconds(0, CatChemistry, 4)
	for n := 1; n < 4; n++ {
		m.ChargeSeconds(n, CatChemistry, 1)
	}
	m.Barrier()
	if got := m.NodeBusy(0); got != 4 {
		t.Errorf("NodeBusy(0) = %g", got)
	}
	per, eff := m.Utilization()
	if per[0] != 1.0 {
		t.Errorf("node 0 utilization %g, want 1", per[0])
	}
	for n := 1; n < 4; n++ {
		if math.Abs(per[n]-0.25) > 1e-12 {
			t.Errorf("node %d utilization %g, want 0.25", n, per[n])
		}
	}
	want := (1.0 + 3*0.25) / 4
	if math.Abs(eff-want) > 1e-12 {
		t.Errorf("efficiency %g, want %g", eff, want)
	}
	// Fresh machine: zero elapsed -> zero efficiency, no panic.
	m2 := newTestVM(t, 2)
	if _, eff := m2.Utilization(); eff != 0 {
		t.Errorf("idle machine efficiency %g", eff)
	}
}

// ChargePhase equals GroupElapsed, ChargeSeconds on each node, then
// BarrierGroup, bit for bit: clocks, per-category spent time and the
// returned before/after, on subgroups of nodes with unequal clocks.
func TestChargePhaseMatchesThreeCalls(t *testing.T) {
	const p = 7
	start := []float64{0.3, 1.7, 0, 2.25, 1e-9, 0.1 + 0.2, 5}
	for _, nodes := range [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{2, 5, 3},
		{6},
		{4, 0},
		{},
	} {
		for _, cat := range []Category{CatComm, CatChemistry} {
			want, got := newTestVM(t, p), newTestVM(t, p)
			for n, c := range start {
				want.ChargeSeconds(n, CatOther, c)
				got.ChargeSeconds(n, CatOther, c)
			}
			secs := make([]float64, len(nodes))
			for i := range secs {
				secs[i] = 0.1*float64(i+1) + 1.0/3
			}
			if len(secs) > 1 {
				secs[1] = 0 // a node with nothing to do in the phase
			}
			wantBefore := want.GroupElapsed(nodes)
			for i, n := range nodes {
				want.ChargeSeconds(n, cat, secs[i])
			}
			wantAfter := want.BarrierGroup(nodes)
			before, after := got.ChargePhase(nodes, cat, secs)
			if before != wantBefore || after != wantAfter {
				t.Errorf("nodes %v: ChargePhase returned (%v, %v), three calls (%v, %v)",
					nodes, before, after, wantBefore, wantAfter)
			}
			for n := 0; n < p; n++ {
				if got.clock[n] != want.clock[n] {
					t.Errorf("nodes %v: node %d clock %v, want %v", nodes, n, got.clock[n], want.clock[n])
				}
				if got.spent[n] != want.spent[n] {
					t.Errorf("nodes %v: node %d spent %v, want %v", nodes, n, got.spent[n], want.spent[n])
				}
			}
		}
	}
}

func TestChargePhaseRejectsNegativeCharge(t *testing.T) {
	m := newTestVM(t, 3)
	defer func() {
		if recover() == nil {
			t.Error("negative phase charge did not panic")
		}
	}()
	m.ChargePhase([]int{0, 1, 2}, CatComm, []float64{1, -1, 1})
}

// BenchmarkChargePhase charges one phase on every node of a p-node
// machine, the unit a replay repeats for each phase of each step.
func BenchmarkChargePhase(b *testing.B) {
	for _, p := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m := newTestVM(b, p)
			nodes := m.AllNodes()
			secs := make([]float64, p)
			for i := range secs {
				secs[i] = 1e-3 * float64(i%5+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ChargePhase(nodes, CatComm, secs)
			}
		})
	}
}
