// Package vm implements a virtual bulk-synchronous distributed-memory
// machine. It is the execution substrate that stands in for the Intel
// Paragon and Cray T3D/T3E hardware of the IPPS'98 Airshed paper.
//
// The model is the one the paper itself uses to explain performance
// (Section 4): an application is a sequence of phases; within a phase every
// node advances its private clock by the compute or communication cost
// charged to it; at a phase boundary all clocks synchronise to the maximum
// ("the overall time of a communication phase is determined by the node
// that has the highest communication load"). Real data transformations run
// in ordinary Go while the virtual clocks account for what they would have
// cost on the target machine.
//
// Every charge carries a Category so that the per-component breakdowns of
// the paper's Figure 4 (chemistry / transport / I/O processing /
// communication) can be reported exactly.
package vm

import (
	"fmt"
	"sort"
	"strings"

	"airshed/internal/machine"
)

// Category labels a charge for the per-component time ledger.
type Category int

// Ledger categories. They mirror the component breakdown of the paper's
// Figure 4, with extra detail for the aerosol step and the population
// exposure module.
const (
	CatChemistry Category = iota
	CatTransport
	CatIO
	CatComm
	CatAerosol
	CatPopExp
	CatOther
	numCategories
)

// String returns the report label of the category.
func (c Category) String() string {
	switch c {
	case CatChemistry:
		return "chemistry"
	case CatTransport:
		return "transport"
	case CatIO:
		return "io"
	case CatComm:
		return "communication"
	case CatAerosol:
		return "aerosol"
	case CatPopExp:
		return "popexp"
	case CatOther:
		return "other"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Categories lists all ledger categories in report order.
func Categories() []Category {
	return []Category{CatChemistry, CatTransport, CatIO, CatComm, CatAerosol, CatPopExp, CatOther}
}

// Machine is a virtual parallel computer with P nodes.
type Machine struct {
	prof  *machine.Profile
	clock []float64                // per-node virtual clocks, seconds
	spent [][numCategories]float64 // per-node per-category time
}

// New creates a virtual machine with p nodes of the given profile.
func New(prof *machine.Profile, p int) (*Machine, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("vm: node count must be positive, got %d", p)
	}
	return &Machine{
		prof:  prof,
		clock: make([]float64, p),
		spent: make([][numCategories]float64, p),
	}, nil
}

// P returns the number of nodes.
func (m *Machine) P() int { return len(m.clock) }

// Profile returns the machine profile.
func (m *Machine) Profile() *machine.Profile { return m.prof }

// chargeSeconds adds t seconds of category cat to node's clock. It is
// small enough to inline into the Charge* methods and they into their
// callers; keep formatting out of it (CI checks that it inlines).
func (m *Machine) chargeSeconds(node int, cat Category, t float64) {
	if t < 0 {
		panic(negativeCharge{node, t})
	}
	m.clock[node] += t
	m.spent[node][cat] += t
}

// negativeCharge is the panic value of a negative charge. Panicking with
// a value, formatted only when printed, keeps the check cheap enough to
// inline.
type negativeCharge struct {
	node int
	t    float64
}

func (e negativeCharge) Error() string {
	return fmt.Sprintf("vm: negative charge %g on node %d", e.t, e.node)
}

// ChargeCompute charges flops units of computational work of category cat
// to a node.
func (m *Machine) ChargeCompute(node int, cat Category, flops float64) {
	m.chargeSeconds(node, cat, m.prof.ComputeTime(flops))
}

// ChargeCommAs charges a communication cost Ct = L*m + G*b + H*c to a node
// under cat: CatComm, or a foreign module's own category for its internal
// communication.
func (m *Machine) ChargeCommAs(node int, cat Category, messages int, bytes, copied int64) {
	m.chargeSeconds(node, cat, m.prof.CommTime(messages, bytes, copied))
}

// ChargeIO charges sequential I/O processing of the given byte volume to a
// node under CatIO.
func (m *Machine) ChargeIO(node int, bytes int64) {
	m.chargeSeconds(node, CatIO, m.prof.IOTime(bytes))
}

// ChargeSeconds charges raw seconds of category cat to a node. Used where a
// cost has already been converted to time (e.g. by the analytic model).
func (m *Machine) ChargeSeconds(node int, cat Category, t float64) {
	m.chargeSeconds(node, cat, t)
}

// ChargePhase charges secs[i] seconds of category cat to nodes[i] and
// synchronises the group at the phase's end, returning the group's clock
// before and after the phase. It equals GroupElapsed, then ChargeSeconds
// on each node, then BarrierGroup: one pass charges each node and tracks
// both maxima, a second sets the group's clocks.
func (m *Machine) ChargePhase(nodes []int, cat Category, secs []float64) (before, after float64) {
	if len(secs) != len(nodes) {
		panic(fmt.Sprintf("vm: %d phase charges for %d nodes", len(secs), len(nodes)))
	}
	clock, spent := m.clock, m.spent
	for i, n := range nodes {
		t := secs[i]
		if t < 0 {
			panic(negativeCharge{n, t})
		}
		c := clock[n]
		if c > before {
			before = c
		}
		c += t
		clock[n] = c
		spent[n][cat] += t
		if i == 0 || c > after {
			after = c
		}
	}
	for _, n := range nodes {
		clock[n] = after
	}
	return before, after
}

// Barrier synchronises all node clocks to the maximum, modelling a
// bulk-synchronous phase boundary, and returns the barrier time.
func (m *Machine) Barrier() float64 {
	return m.BarrierGroup(allNodes(len(m.clock)))
}

// BarrierGroup synchronises the clocks of the listed nodes to their
// maximum, leaving other nodes untouched. It models a phase boundary inside
// a task subgroup. Returns the synchronised time.
func (m *Machine) BarrierGroup(nodes []int) float64 {
	if len(nodes) == 0 {
		return 0
	}
	max := m.clock[nodes[0]]
	for _, n := range nodes[1:] {
		if m.clock[n] > max {
			max = m.clock[n]
		}
	}
	for _, n := range nodes {
		// The idle gap a node spends waiting at the barrier is not
		// attributed to any work category; it shows up as the
		// difference between Elapsed and the sum of category times on
		// that node.
		m.clock[n] = max
	}
	return max
}

// Elapsed returns the current virtual time: the maximum clock over all
// nodes.
func (m *Machine) Elapsed() float64 {
	max := 0.0
	for _, c := range m.clock {
		if c > max {
			max = c
		}
	}
	return max
}

// Clock returns the private clock of one node.
func (m *Machine) Clock(node int) float64 { return m.clock[node] }

// CategorySeconds returns the maximum-over-nodes time spent in the category.
// For phase-synchronous programs this equals the wall-clock contribution of
// the category, which is what the paper's Figure 4 plots.
func (m *Machine) CategorySeconds(cat Category) float64 {
	max := 0.0
	for _, s := range m.spent {
		if s[cat] > max {
			max = s[cat]
		}
	}
	return max
}

// Ledger is a per-category time report.
type Ledger struct {
	Machine string
	Nodes   int
	Total   float64
	ByCat   map[Category]float64
}

// Ledger snapshots the current per-category maxima and total elapsed time.
func (m *Machine) Ledger() Ledger {
	l := Ledger{
		Machine: m.prof.Name,
		Nodes:   len(m.clock),
		Total:   m.Elapsed(),
		ByCat:   make(map[Category]float64, int(numCategories)),
	}
	for _, cat := range Categories() {
		l.ByCat[cat] = m.CategorySeconds(cat)
	}
	return l
}

// String formats the ledger as an aligned report.
func (l Ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, %d nodes: total %10.3f s\n", l.Machine, l.Nodes, l.Total)
	cats := make([]Category, 0, len(l.ByCat))
	for c := range l.ByCat {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, c := range cats {
		if l.ByCat[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-14s %10.3f s\n", c.String(), l.ByCat[c])
	}
	return b.String()
}

// NodeBusy returns the time node has spent doing attributed work (the sum
// of its category charges); the difference between Elapsed and NodeBusy is
// the time the node idled at barriers.
func (m *Machine) NodeBusy(node int) float64 {
	busy := 0.0
	for _, v := range m.spent[node] {
		busy += v
	}
	return busy
}

// Utilization returns each node's busy fraction of the elapsed time, and
// Efficiency the machine-wide average — the parallel efficiency of the
// run (1.0 means no node ever waited at a barrier).
func (m *Machine) Utilization() (perNode []float64, efficiency float64) {
	total := m.Elapsed()
	perNode = make([]float64, len(m.clock))
	if total <= 0 {
		return perNode, 0
	}
	sum := 0.0
	for n := range m.clock {
		perNode[n] = m.NodeBusy(n) / total
		sum += perNode[n]
	}
	return perNode, sum / float64(len(m.clock))
}

// AdvanceTo moves every listed node's clock forward to at least t. Used by
// the pipelined task runtime to model a stage that cannot begin before its
// input is available.
func (m *Machine) AdvanceTo(nodes []int, t float64) {
	for _, n := range nodes {
		if m.clock[n] < t {
			m.clock[n] = t
		}
	}
}

// GroupElapsed returns the maximum clock over the listed nodes.
func (m *Machine) GroupElapsed(nodes []int) float64 {
	max := 0.0
	for _, n := range nodes {
		if m.clock[n] > max {
			max = m.clock[n]
		}
	}
	return max
}

func allNodes(p int) []int {
	nodes := make([]int, p)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// AllNodes returns the identity node list [0..P).
func (m *Machine) AllNodes() []int { return allNodes(len(m.clock)) }
