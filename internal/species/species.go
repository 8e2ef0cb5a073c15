// Package species defines chemical mechanisms for the Airshed model: the
// species table and gas-phase reaction set whose stiff kinetics the
// chemistry operator integrates.
//
// The CIT airshed model the paper builds on uses a condensed photochemical
// mechanism with 35 species (the first dimension of the concentration
// array A(35, layers, nodes)). The original CIT mechanism is not publicly
// distributable, so this package ships StandardMechanism, a carbon-bond
// style condensed mechanism with exactly 35 species and a comparable
// reaction count, preserving the stiffness structure (fast radical cycles
// against slow reservoir species) that drives the cost profile of the
// chemistry phase. Mechanisms are data, so tests and studies can also
// construct small synthetic mechanisms with exact invariants.
package species

import (
	"fmt"
	"math"
)

// DepositionClass groups species by dry-deposition behaviour.
type DepositionClass int

// Deposition classes, from non-depositing to strongly depositing.
const (
	DepNone DepositionClass = iota
	DepSlow
	DepModerate
	DepFast
)

// Spec describes one chemical species.
type Spec struct {
	// Name is the mechanism name, e.g. "NO2".
	Name string
	// MW is the molecular weight in g/mol (informational; concentrations
	// are carried in ppm-like mixing units).
	MW float64
	// Dep is the dry-deposition class used by the vertical transport
	// operator's surface boundary condition.
	Dep DepositionClass
	// Background is the clean-air background mixing ratio used for
	// initial and boundary conditions (ppm).
	Background float64
}

// RateExpr evaluates a reaction rate constant as a function of temperature
// T (Kelvin) and the normalised solar actinic flux sun in [0, 1] (0 at
// night, 1 at local solar noon equinox).
type RateExpr interface {
	K(T, sun float64) float64
}

// Arrhenius is k = A * (T/300)^B * exp(-ER/T), the standard thermal rate
// form (ER is the activation energy divided by the gas constant, in K).
type Arrhenius struct {
	A  float64
	B  float64
	ER float64
}

// K implements RateExpr.
func (a Arrhenius) K(T, _ float64) float64 {
	k := a.A
	if a.B != 0 {
		k *= math.Pow(T/300.0, a.B)
	}
	if a.ER != 0 {
		k *= math.Exp(-a.ER / T)
	}
	return k
}

// Photolysis is k = JMax * sun: a photolytic rate proportional to actinic
// flux, zero at night.
type Photolysis struct {
	JMax float64
}

// K implements RateExpr.
func (p Photolysis) K(_, sun float64) float64 {
	if sun <= 0 {
		return 0
	}
	return p.JMax * sun
}

// Term is one product of a reaction with its stoichiometric yield.
type Term struct {
	Species int
	Yield   float64
}

// Reaction is an elementary (or lumped) reaction with one or two reactant
// species and arbitrary product terms. Rate units follow mixing-ratio
// kinetics: 1/min for unimolecular, 1/(ppm·min) for bimolecular.
type Reaction struct {
	// Label is a short human-readable form, e.g. "NO2+hv->NO+O".
	Label string
	// Reactants holds 1 or 2 species indices.
	Reactants []int
	// Products holds the product terms; yields may be fractional
	// (lumped mechanisms) and a species may appear on both sides.
	Products []Term
	// Rate is the rate-constant expression.
	Rate RateExpr
}

// Mechanism is a species table plus a reaction set.
type Mechanism struct {
	Species   []Spec
	Reactions []Reaction
	byName    map[string]int

	// Compiled form for the ProdLoss hot loop (built by NewMechanism):
	// reactant indices with y < 0 marking unimolecular reactions, and a
	// flattened product-term table indexed by [prodOff, prodEnd).
	rxnX, rxnY       []int32
	prodOff, prodEnd []int32
	prodSpec         []int32
	prodYield        []float64
	flopsPerProdLoss float64

	// kernel, when set, is the reaction table compiled to straight-line
	// code by GenerateKernel; ProdLoss then runs it instead of
	// interpreting the tables above, with bit-identical results. Only
	// StandardMechanism attaches one.
	kernel func(c, k, P, L []float64)
}

// NewMechanism builds a mechanism and validates it: species names must be
// unique and non-empty, reactions must reference valid species with 1 or 2
// reactants, yields must be non-negative, and every rate expression must be
// non-nil.
func NewMechanism(specs []Spec, reactions []Reaction) (*Mechanism, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("species: mechanism needs at least one species")
	}
	byName := make(map[string]int, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("species: species %d has empty name", i)
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("species: duplicate species %q", s.Name)
		}
		if s.Background < 0 {
			return nil, fmt.Errorf("species %s: negative background", s.Name)
		}
		byName[s.Name] = i
	}
	for ri, r := range reactions {
		if len(r.Reactants) < 1 || len(r.Reactants) > 2 {
			return nil, fmt.Errorf("species: reaction %d (%s) has %d reactants", ri, r.Label, len(r.Reactants))
		}
		for _, s := range r.Reactants {
			if s < 0 || s >= len(specs) {
				return nil, fmt.Errorf("species: reaction %d (%s) has bad reactant %d", ri, r.Label, s)
			}
		}
		for _, p := range r.Products {
			if p.Species < 0 || p.Species >= len(specs) {
				return nil, fmt.Errorf("species: reaction %d (%s) has bad product %d", ri, r.Label, p.Species)
			}
			if p.Yield < 0 {
				return nil, fmt.Errorf("species: reaction %d (%s) has negative yield", ri, r.Label)
			}
		}
		if r.Rate == nil {
			return nil, fmt.Errorf("species: reaction %d (%s) has nil rate", ri, r.Label)
		}
	}
	m := &Mechanism{Species: specs, Reactions: reactions, byName: byName}
	m.compile()
	return m, nil
}

// compile flattens the reaction set for the ProdLoss hot loop.
func (m *Mechanism) compile() {
	nr := len(m.Reactions)
	m.rxnX = make([]int32, nr)
	m.rxnY = make([]int32, nr)
	m.prodOff = make([]int32, nr)
	m.prodEnd = make([]int32, nr)
	for ri, r := range m.Reactions {
		m.rxnX[ri] = int32(r.Reactants[0])
		if len(r.Reactants) == 2 {
			m.rxnY[ri] = int32(r.Reactants[1])
		} else {
			m.rxnY[ri] = -1
		}
		m.prodOff[ri] = int32(len(m.prodSpec))
		for _, p := range r.Products {
			m.prodSpec = append(m.prodSpec, int32(p.Species))
			m.prodYield = append(m.prodYield, p.Yield)
		}
		m.prodEnd[ri] = int32(len(m.prodSpec))
	}
	m.flopsPerProdLoss = float64(8*nr + 2*len(m.prodSpec))
}

// N returns the number of species.
func (m *Mechanism) N() int { return len(m.Species) }

// Index returns the species index for a name, or -1 if absent.
func (m *Mechanism) Index(name string) int {
	if i, ok := m.byName[name]; ok {
		return i
	}
	return -1
}

// MustIndex is Index but panics on unknown names; for mechanism authoring
// and tests.
func (m *Mechanism) MustIndex(name string) int {
	i := m.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("species: unknown species %q", name))
	}
	return i
}

// RateConstants evaluates every reaction's rate constant into k, which must
// have length len(Reactions).
func (m *Mechanism) RateConstants(T, sun float64, k []float64) {
	if len(k) != len(m.Reactions) {
		panic(fmt.Sprintf("species: RateConstants buffer %d, want %d", len(k), len(m.Reactions)))
	}
	for i := range m.Reactions {
		k[i] = m.Reactions[i].Rate.K(T, sun)
	}
}

// ProdLoss computes, for concentrations c (length N), the production term
// P_i (in conc/min) and the first-order loss coefficient L_i (in 1/min) of
// every species, so that dc_i/dt = P_i - L_i * c_i. k must hold the
// pre-evaluated rate constants. P and L must have length N and are
// overwritten.
//
// Loss is linearised in the species itself: for a reaction X + Y -> ...,
// the loss coefficient of X is k*[Y] and of Y is k*[X]; for X + X -> ...
// it is 2k*[X]. This is the exact form the Young–Boris hybrid solver
// integrates.
func (m *Mechanism) ProdLoss(c, k, P, L []float64) {
	n := m.N()
	if len(c) != n || len(P) != n || len(L) != n {
		panic("species: ProdLoss buffer size mismatch")
	}
	if m.kernel != nil {
		m.kernel(c, k, P, L)
		return
	}
	m.interpret(c, k, P, L)
}

// interpret is ProdLoss by walking the compiled tables: the only path for
// mechanisms without a generated kernel, and the reference the generated
// kernel is differentially tested against.
func (m *Mechanism) interpret(c, k, P, L []float64) {
	n := m.N()
	clear(P[:n])
	clear(L[:n])
	// Local aliases of the compiled tables keep the hot loop free of
	// pointer chases through m, and reslicing k to the reaction count up
	// front lets the compiler drop the per-iteration bounds checks. The
	// iteration and accumulation order is exactly the naive loop's —
	// ProdLoss feeds a bit-identity guarantee, so only the instruction
	// stream may change here, never the float operation order.
	rxnX, rxnY := m.rxnX, m.rxnY
	prodOff, prodEnd := m.prodOff, m.prodEnd
	prodSpec, prodYield := m.prodSpec, m.prodYield
	k = k[:len(rxnX)]
	rxnY = rxnY[:len(rxnX)]
	prodOff = prodOff[:len(rxnX)]
	prodEnd = prodEnd[:len(rxnX)]
	for ri := range rxnX {
		kr := k[ri]
		if kr == 0 {
			continue
		}
		x := rxnX[ri]
		y := rxnY[ri]
		var rate float64
		switch {
		case y < 0:
			L[x] += kr
			rate = kr * c[x]
		case y == x:
			cx := c[x]
			L[x] += 2 * kr * cx
			rate = kr * cx * cx
		default:
			cx, cy := c[x], c[y]
			L[x] += kr * cy
			L[y] += kr * cx
			rate = kr * cx * cy
		}
		if rate == 0 {
			continue
		}
		for i := prodOff[ri]; i < prodEnd[ri]; i++ {
			P[prodSpec[i]] += prodYield[i] * rate
		}
	}
}

// FlopsPerProdLoss estimates the floating point work of one ProdLoss
// evaluation, used by the cost model: roughly 8 flops per reaction plus 2
// per product term.
func (m *Mechanism) FlopsPerProdLoss() float64 { return m.flopsPerProdLoss }

// Backgrounds returns a fresh concentration vector set to every species'
// background value.
func (m *Mechanism) Backgrounds() []float64 {
	c := make([]float64, m.N())
	for i, s := range m.Species {
		c[i] = s.Background
	}
	return c
}
