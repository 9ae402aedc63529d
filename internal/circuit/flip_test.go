package circuit

import (
	"math"
	"math/rand"
	"testing"
)

// flipGapEps spans (0, 1): the paper's and the benchmark workloads'
// gate error rates plus both extremes.
var flipGapEps = []float64{1e-9, 1e-6, 1e-4, 1e-3, 0.003, 0.01, 0.0125, 0.05, 0.1, 0.5, 0.9, 1 - 1e-9}

// TestFlipGapExact holds the table-driven gap to its math.Log
// definition (refGap) where a wrong truncation is likeliest: random u
// in each of the 63 binades a draw can fall in, the float neighbours
// of every u at which the product crosses an integer, and the
// smallest and largest draws.
func TestFlipGapExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, eps := range flipGapEps {
		invLog := 1 / math.Log1p(-eps)
		check := func(u float64) {
			t.Helper()
			if got, want := flipGap(u, invLog), refGap(u, invLog); got != want {
				t.Fatalf("eps=%v u=%v (%#016x): gap %d, want %d", eps, u, math.Float64bits(u), got, want)
			}
		}
		// Binade [2^-b, 2^(1-b)) with a random 52-bit fraction.
		for b := 1; b <= 63; b++ {
			for i := 0; i < 500; i++ {
				check(math.Float64frombits(uint64(1023-b)<<52 | rng.Uint64()>>12))
			}
		}
		// y = n at u = (1-eps)^n; up to 4000 crossings that a draw
		// can reach, 16 floats either side of each.
		for n := 1; n <= 4000; n++ {
			un := math.Exp(float64(n) / invLog)
			if un < 0x1p-63 {
				break
			}
			lo, hi := un, un
			for k := 0; k < 16; k++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			}
			for u := lo; u <= hi && u < 1; u = math.Nextafter(u, 1) {
				check(u)
			}
		}
		check(0x1p-63)
		check(1 - 0x1p-53)
	}
}

// FuzzFlipGap checks the same property on any draw and any eps in
// (0, 1): u is rand.Float64's value for the Int63 in ubits.
func FuzzFlipGap(f *testing.F) {
	for i, eps := range flipGapEps {
		f.Add(uint64(i+1)<<59, eps)
	}
	f.Add(uint64(2), 1e-25)                   // u = 2^-63
	f.Add(uint64(1<<63-513)<<1, 0.01)         // u = 1-2^-53, the largest draw
	f.Add(uint64(0x5555555555555555), 1e-300) // a product past 2^63
	f.Fuzz(func(t *testing.T, ubits uint64, eps float64) {
		if !(eps > 0 && eps < 1) {
			return
		}
		u := float64(int64(ubits>>1)) / (1 << 63)
		if u == 0 || u == 1 {
			return
		}
		invLog := 1 / math.Log1p(-eps)
		if got, want := flipGap(u, invLog), refGap(u, invLog); got != want {
			t.Fatalf("eps=%v u=%v: gap %d, want %d", eps, u, got, want)
		}
	})
}

// TestFlipMasksTinyEps pins the saturated gap: at eps this small no
// lane of 400 ops × 8 words is due to flip, yet a product past 2⁶³
// used to convert to MinInt64 and clamp to a zero gap, a flip.
func TestFlipMasksTinyEps(t *testing.T) {
	const nops, words = 400, 8
	masks := make([]uint64, nops*words)
	for _, eps := range []float64{1e-20, 1e-25} {
		drawFlipMasks(masks, nops, words, eps, NewNoiseSource(42))
		for i, m := range masks {
			if m != 0 {
				t.Fatalf("eps=%v: op %d word %d flips %016x", eps, i/words, i%words, m)
			}
		}
	}
	c := randomCircuit(3, 12, 400, 10)
	pi := c.RandomInputs(rand.New(rand.NewSource(77)))
	want := c.EvalNoisyBlockInto(nil, pi, nil, 0, NewNoiseSource(42), words, nil)
	got := c.EvalNoisyBlockInto(nil, pi, nil, 1e-25, NewNoiseSource(42), words, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eps=1e-25: output %d word %d is %016x, noiseless %016x", i/words, i%words, got[i], want[i])
		}
	}
}
