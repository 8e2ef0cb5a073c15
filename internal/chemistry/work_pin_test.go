package chemistry_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"airshed/internal/chemistry"
	"airshed/internal/datasets"
)

// TestWorkCountersPinned integrates a fixed set of parcels and asserts the
// exact Work the step controller reports. The counters are what the cost
// model charges (CellWork.Flops), so any change to the accept/reject path
// would silently invalidate every recorded trace and virtual-time figure;
// an optimisation of the integrator must leave every number here alone.
// The values were recorded before the compiled ProdLoss kernel and the
// division-free convergence test went in. The last parcels run with a
// coarse MinDt so that rejected steps at the floor are committed anyway —
// the one path where a non-converged corrector iterate reaches c — and
// pin the final state's bits as well.
func TestWorkCountersPinned(t *testing.T) {
	la, err := datasets.LA()
	if err != nil {
		t.Fatal(err)
	}
	mech := la.Mechanism()
	in12, err := la.Provider.HourInput(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(in12.TempK) != 5 {
		t.Fatalf("LA hour 12 has %d layers, want 5", len(in12.TempK))
	}

	set := func(c []float64, kv map[string]float64) []float64 {
		for name, v := range kv {
			c[mech.MustIndex(name)] = v
		}
		return c
	}
	urban := func() []float64 {
		return set(mech.Backgrounds(), map[string]float64{
			"NO": 0.05, "NO2": 0.08, "CO": 2, "FORM": 0.01, "ALD2": 0.008,
			"PAR": 0.4, "OLE": 0.01, "ETH": 0.02, "TOL": 0.02, "XYL": 0.015, "SO2": 0.02,
		})
	}
	plume := func() []float64 {
		return set(mech.Backgrounds(), map[string]float64{"NO": 0.5, "NO2": 0.05, "SO2": 0.1})
	}

	type parcel struct {
		name    string
		c       []float64
		minutes float64
		T, sun  float64
		want    chemistry.Work
		minDt   float64 // 0: DefaultConfig's
		bits    uint64  // FNV-1a of the final state's bits; 0: not pinned
	}
	parcels := []parcel{
		{"urban noon 30min", urban(), 30, 305, 1, w(44, 40, 277), 0, 0},
		{"urban noon 5min", urban(), 5, 305, 1, w(37, 34, 230), 0, 0},
		{"urban dusk", urban(), 30, 295, 0.1, w(69, 65, 415), 0, 0},
		{"urban night", urban(), 30, 288, 0, w(117, 115, 728), 0, 0},
		{"rural noon", mech.Backgrounds(), 30, 298, 1, w(75, 71, 480), 0, 0},
		{"rural night", mech.Backgrounds(), 30, 283, 0, w(75, 73, 478), 0, 0},
		{"rural night 60min", mech.Backgrounds(), 60, 283, 0, w(103, 99, 649), 0, 0},
		{"fresh NO plume noon", plume(), 30, 300, 1, w(53, 46, 321), 0, 0},
		{"fresh NO plume night", plume(), 30, 288, 0, w(89, 79, 514), 0, 0},
		{"all zero", make([]float64, mech.N()), 30, 298, 1, w(5, 0, 10), 0, 0},
		{"floored urban noon", urban(), 30, 305, 1, w(14, 7, 76), 0.5, 0x127a97e53efd5c4c},
		{"floored plume night", plume(), 30, 288, 0, w(25, 10, 119), 0.5, 0x222155980f37ec7b},
	}
	for l, T := range in12.TempK {
		parcels = append(parcels,
			parcel{name: "LA h12 urban layer", c: urban(), minutes: 20, T: T, sun: in12.Sun, want: laUrbanWork[l]},
			parcel{name: "LA h12 rural layer", c: mech.Backgrounds(), minutes: 20, T: T, sun: in12.Sun, want: laRuralWork[l]},
		)
	}

	for _, p := range parcels {
		cfg := chemistry.DefaultConfig()
		if p.minDt != 0 {
			cfg.MinDt = p.minDt
		}
		in, err := chemistry.NewIntegrator(mech, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.Integrate(p.c, p.minutes, p.T, p.sun)
		if err != nil {
			t.Fatalf("%s (T=%g): %v", p.name, p.T, err)
		}
		if got != p.want {
			t.Errorf("%s (T=%g sun=%g): work %+v, pinned %+v", p.name, p.T, p.sun, got, p.want)
		}
		if p.bits != 0 {
			h := fnv.New64a()
			for _, v := range p.c {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if h.Sum64() != p.bits {
				t.Errorf("%s: final state hashes to %#x, pinned %#x", p.name, h.Sum64(), p.bits)
			}
		}
	}

	// One full Lcz application on an urban column under the LA hour-12
	// forcing: the Operator path (cached per-layer rates, in-place layer
	// blocks) must take the same steps too.
	op, err := chemistry.NewOperator(mech, la.Geometry(), chemistry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, nl := mech.N(), la.Geometry().Layers()
	conc := make([]float64, n*nl)
	for l := 0; l < nl; l++ {
		copy(conc[n*l:], urban())
	}
	emis := make([]float64, n)
	for s := range emis {
		emis[s] = in12.Emis[s][0]
	}
	env := &chemistry.CellEnv{
		TempK: in12.TempK, Sun: in12.Sun,
		Vert: &chemistry.VerticalEnv{Kz: in12.Kz, VDep: in12.VDep, Emis: emis, VSettle: in12.VSettle},
	}
	cw, err := op.Apply(conc, env, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if cw.Chem != laColumnWork {
		t.Errorf("LA h12 urban column: work %+v, pinned %+v", cw.Chem, laColumnWork)
	}
}

func w(substeps, rejected, evals int) chemistry.Work {
	return chemistry.Work{Substeps: substeps, Rejected: rejected, Evals: evals}
}

// Pinned per-layer values for the LA hour-12 temperatures (ground up).
var (
	laUrbanWork = [5]chemistry.Work{w(42, 37, 262), w(45, 41, 280), w(41, 37, 258), w(40, 36, 254), w(45, 41, 279)}
	laRuralWork = [5]chemistry.Work{w(76, 73, 478), w(68, 63, 427), w(87, 84, 540), w(84, 81, 523), w(80, 77, 501)}

	laColumnWork = w(202, 189, 1301)
)
