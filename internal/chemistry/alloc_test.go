package chemistry

import (
	"testing"

	"airshed/internal/species"
)

// TestApplyZeroAlloc pins the steady-state allocation behaviour of the
// chemistry hot path: once an Operator is built, Apply must not allocate
// — the host engine runs it millions of times per simulated day, and any
// per-call garbage would serialise the worker pool on the allocator.
func TestApplyZeroAlloc(t *testing.T) {
	mech := species.StandardMechanism()
	geo := StandardLayers()
	op, err := NewOperator(mech, geo, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, nl := mech.N(), geo.Layers()
	conc := make([]float64, n*nl)
	for l := 0; l < nl; l++ {
		copy(conc[n*l:n*(l+1)], mech.Backgrounds())
	}
	env := &CellEnv{
		TempK: make([]float64, nl),
		Sun:   0.8,
		Vert: &VerticalEnv{
			Kz:   make([]float64, nl-1),
			VDep: make([]float64, n),
			Emis: make([]float64, n),
		},
	}
	for l := 0; l < nl; l++ {
		env.TempK[l] = 298 - float64(l)
	}
	for i := 0; i < nl-1; i++ {
		env.Vert.Kz[i] = 10
	}
	apply := func() {
		if _, err := op.Apply(conc, env, 60); err != nil {
			t.Fatal(err)
		}
	}
	apply() // warm up: populate the per-layer rate cache
	if avg := testing.AllocsPerRun(20, apply); avg != 0 {
		t.Errorf("Operator.Apply allocates %.1f objects per call in steady state, want 0", avg)
	}
}

// TestKernelPathZeroAlloc pins the pieces under Apply one by one: the
// compiled ProdLoss kernel (reached through its func-valued field), and
// IntegrateWithRates advancing one layer block of a column array in place
// with a borrowed rate vector — neither may allocate, and the borrowed
// rates and the neighbouring blocks must come back untouched.
func TestKernelPathZeroAlloc(t *testing.T) {
	mech := species.StandardMechanism()
	n, nr := mech.N(), len(mech.Reactions)
	k := make([]float64, nr)
	mech.RateConstants(298, 0.8, k)
	kWant := append([]float64(nil), k...)

	c, P, L := mech.Backgrounds(), make([]float64, n), make([]float64, n)
	if avg := testing.AllocsPerRun(100, func() { mech.ProdLoss(c, k, P, L) }); avg != 0 {
		t.Errorf("ProdLoss (compiled kernel) allocates %.1f objects per call, want 0", avg)
	}

	in, err := NewIntegrator(mech, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	column := make([]float64, 3*n)
	for l := 0; l < 3; l++ {
		copy(column[n*l:], mech.Backgrounds())
	}
	integrate := func() {
		if _, err := in.IntegrateWithRates(column[n:2*n], 1, k); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(20, integrate); avg != 0 {
		t.Errorf("IntegrateWithRates allocates %.1f objects per call, want 0", avg)
	}
	for i, bg := range mech.Backgrounds() {
		if column[i] != bg || column[2*n+i] != bg {
			t.Fatalf("in-place integration of block 1 wrote species %d of a neighbouring block", i)
		}
	}
	for i := range k {
		if k[i] != kWant[i] {
			t.Fatalf("IntegrateWithRates modified the borrowed rate vector at %d", i)
		}
	}
}
