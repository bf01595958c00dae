package spice

import (
	"math"
	"math/rand"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/tech"
)

// TestAlphaPowerMatchesPow checks the alpha-power fast path against
// math.Pow bit for bit: every tech card's Alpha (fast path) plus
// exponents that must fall back (1.7 has a fraction above 0.5, 2.0
// none), over 10^6 bases in (0, 1] per exponent — uniform, uniform over
// bit patterns (every binade, subnormals included), log-uniform across
// the minFastPow cut-off — and the edge cases.
func TestAlphaPowerMatchesPow(t *testing.T) {
	edges := []float64{1, math.Nextafter(1, 0), 0.5, 0x1p-1022, 0x1p-1074, math.SmallestNonzeroFloat64}
	for _, c := range []float64{0x1p-900, minFastPow} {
		x := c
		for i := 0; i < 3; i++ {
			x = math.Nextafter(x, 0)
		}
		for i := 0; i < 7; i++ {
			edges = append(edges, x)
			x = math.Nextafter(x, 1)
		}
	}
	var alphas []float64
	for _, tc := range tech.All() {
		alphas = append(alphas, tc.Alpha)
	}
	fallback := []float64{1.7, 2.0}
	for _, a := range append(alphas, fallback...) {
		p := newAlphaPower(a)
		wantFast := a <= 1.5
		if p.fast != wantFast {
			t.Errorf("alpha %v: fast path %v, want %v", a, p.fast, wantFast)
		}
		r := rand.New(rand.NewSource(1))
		check := func(x float64) bool {
			got, want := p.at(x), math.Pow(x, a)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("alpha %v, x %b: got %b, want %b", a, x, got, want)
				return false
			}
			return true
		}
		for _, x := range edges {
			check(x)
		}
		n := 0
		for n < 1000000 {
			var x float64
			switch n % 3 {
			case 0:
				x = 1 - r.Float64() // (0, 1]
			case 1:
				x = math.Float64frombits(r.Uint64() >> 2) // [0, 2), binades equally likely
			default:
				x = math.Exp2(-500 - 500*r.Float64()) // log-uniform over [2^-1000, 2^-500]
			}
			if x <= 0 || x > 1 {
				continue
			}
			if !check(x) {
				return
			}
			n++
		}
	}
}

// TestSimulateGateAllocs gates the transient kernel's allocation-free
// claim: a whole AO22 simulation allocates only its network, stimulus
// and output waveform (a few dozen objects), never per time step.
func TestSimulateGateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector bookkeeping breaks AllocsPerRun accounting")
	}
	tc := t130(t)
	ao22 := cell.Default().MustGet("AO22")
	vec := ao22.Vectors("A")[1]
	load := ao22.InputCap(tc, "A")
	s := New(tc)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.SimulateGate(ao22, vec, false, 40e-12, load); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("SimulateGate AO22: %.0f allocs per run, want at most 100", allocs)
	}
}
