package species

import (
	"bytes"
	"encoding/binary"
	"flag"
	"go/format"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite standard_kernel.go from the live StandardMechanism() table")

const kernelFile = "standard_kernel.go"

// TestStandardKernelUpToDate regenerates the kernel from the live reaction
// table and byte-compares it with the checked-in file: editing standard.go
// without regenerating fails here instead of producing wrong chemistry.
func TestStandardKernelUpToDate(t *testing.T) {
	m := StandardMechanism()
	if m.kernel == nil {
		t.Fatal("StandardMechanism() has no compiled kernel attached; ProdLoss would silently interpret")
	}
	want := GenerateKernel(m, "standardKernel", "StandardMechanism()")
	if clean, err := format.Source(want); err != nil {
		t.Fatalf("generated kernel does not parse: %v", err)
	} else if !bytes.Equal(clean, want) {
		t.Fatal("generated kernel is not gofmt-clean; fix GenerateKernel's layout")
	}
	if !regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.\n`).Match(want) {
		t.Fatal("generated kernel lacks the standard generated-code header")
	}
	if *update {
		if err := os.WriteFile(kernelFile, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(kernelFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale against StandardMechanism(); regenerate with\n\tgo test ./internal/species -run TestStandardKernelUpToDate -update", kernelFile)
	}
}

// sameFloat is bit equality, except that any NaN matches any NaN: which
// operand's payload survives an add of two NaNs depends on the operand
// order the compiler picked, which is not part of the contract.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkKernel runs the compiled kernel and the interpreter on one state
// and fails on the first differing bit.
func checkKernel(t *testing.T, m *Mechanism, c, k []float64) {
	t.Helper()
	n := m.N()
	Pk, Lk := make([]float64, n), make([]float64, n)
	Pi, Li := make([]float64, n), make([]float64, n)
	for i := range Pk { // both paths must overwrite, not accumulate
		Pk[i], Lk[i], Pi[i], Li[i] = 1, 2, 3, 4
	}
	m.ProdLoss(c, k, Pk, Lk)
	m.interpret(c, k, Pi, Li)
	for i := 0; i < n; i++ {
		if !sameFloat(Pk[i], Pi[i]) {
			t.Fatalf("P[%s]: kernel %x (%g), interpreter %x (%g)\nc=%v\nk=%v",
				m.Species[i].Name, math.Float64bits(Pk[i]), Pk[i], math.Float64bits(Pi[i]), Pi[i], c, k)
		}
		if !sameFloat(Lk[i], Li[i]) {
			t.Fatalf("L[%s]: kernel %x (%g), interpreter %x (%g)\nc=%v\nk=%v",
				m.Species[i].Name, math.Float64bits(Lk[i]), Lk[i], math.Float64bits(Li[i]), Li[i], c, k)
		}
	}
}

// TestStandardKernelBitIdentical is the differential test: over 12 000
// seeded states spanning the regimes the integrator visits (and some it
// must survive), kernel and interpreter agree on every bit of P and L.
func TestStandardKernelBitIdentical(t *testing.T) {
	m := StandardMechanism()
	n, nr := m.N(), len(m.Reactions)
	rng := rand.New(rand.NewSource(12))
	special := []float64{0, 0, 0, 1e-30, 1e-30, 5e-324, 2.5e-310, 1e-300, 1, 1e6, math.Copysign(0, -1)}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-3}
	c, k := make([]float64, n), make([]float64, nr)
	for iter := 0; iter < 12000; iter++ {
		T := 250 + 70*rng.Float64()
		sun := rng.Float64()
		if iter%3 == 0 {
			sun = 0 // night: every photolysis k is exactly 0
		}
		m.RateConstants(T, sun, k)
		for i := range c {
			switch mode := iter % 4; {
			case mode == 0: // near backgrounds
				c[i] = m.Species[i].Background * (0.5 + rng.Float64())
			case mode == 1: // log-uniform over 36 decades
				c[i] = math.Pow(10, -30+36*rng.Float64())
			case rng.Intn(3) == 0:
				c[i] = special[rng.Intn(len(special))]
			default:
				c[i] = rng.Float64()
			}
		}
		if iter%10 == 9 { // poison a few entries: same skips, same propagation
			for j := 0; j < 1+rng.Intn(3); j++ {
				c[rng.Intn(n)] = nonFinite[rng.Intn(len(nonFinite))]
			}
			if rng.Intn(2) == 0 {
				k[rng.Intn(nr)] = nonFinite[rng.Intn(len(nonFinite))]
			}
		}
		checkKernel(t, m, c, k)
	}
}

// FuzzProdLossKernel lets the fuzzer pick the state: the concentration
// vector is raw float64 bit patterns (so NaNs, infinities, denormals and
// negative values all occur), zero-padded or truncated to N. The seed
// corpus under testdata/fuzz runs as a unit test in tier-1.
func FuzzProdLossKernel(f *testing.F) {
	m := StandardMechanism()
	n, nr := m.N(), len(m.Reactions)
	pack := func(c []float64) []byte {
		b := make([]byte, 8*len(c))
		for i, v := range c {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(pack(m.Backgrounds()), 298.0, 1.0)
	f.Add(pack(m.Backgrounds()), 283.0, 0.0)
	f.Add([]byte{}, 300.0, 0.5)
	f.Fuzz(func(t *testing.T, cb []byte, T, sun float64) {
		c, k := make([]float64, n), make([]float64, nr)
		for i := 0; i < n && 8*i+8 <= len(cb); i++ {
			c[i] = math.Float64frombits(binary.LittleEndian.Uint64(cb[8*i:]))
		}
		m.RateConstants(T, sun, k)
		checkKernel(t, m, c, k)
	})
}

// BenchmarkProdLoss times one evaluation on the compiled kernel and on the
// interpreter it replaced (daytime background state, every reaction live).
func BenchmarkProdLoss(b *testing.B) {
	m := StandardMechanism()
	n := m.N()
	c, k := m.Backgrounds(), make([]float64, len(m.Reactions))
	m.RateConstants(298, 1, k)
	P, L := make([]float64, n), make([]float64, n)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ProdLoss(c, k, P, L)
		}
	})
	b.Run("interpreter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.interpret(c, k, P, L)
		}
	})
}
