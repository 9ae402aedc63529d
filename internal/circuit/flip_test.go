package circuit

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// flipGapEps spans (0, 1): the paper's and the benchmark workloads'
// gate error rates plus both extremes.
var flipGapEps = []float64{1e-9, 1e-6, 1e-4, 1e-3, 0.003, 0.01, 0.0125, 0.05, 0.1, 0.5, 0.9, 1 - 1e-9}

// TestFlipGapExact holds the table-driven gap to its math.Log
// definition (refGap) where a wrong truncation is likeliest: random u
// in each of the 63 binades a draw can fall in, the float neighbours
// of every u at which the product crosses an integer, and the
// smallest and largest draws. It holds the gap drawFlipMasks takes
// from a draw (usedGap: the eps's gap table, or computeGap where the
// table holds none) to the same definition: the first two and last
// two draws of each of the 65,536 fine buckets of the gap table and a
// random one inside it, the draws at and next to every float it checks
// around a crossing, and random draws.
func TestFlipGapExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, eps := range flipGapEps {
		invLog := 1 / math.Log1p(-eps)
		tab := gapTableFor(eps)
		check := func(u float64) {
			t.Helper()
			if got, want := flipGap(u, invLog), refGap(u, invLog); got != want {
				t.Fatalf("eps=%v u=%v (%#016x): gap %d, want %d", eps, u, math.Float64bits(u), got, want)
			}
		}
		checkDraw := func(x int64) {
			t.Helper()
			if got, want := usedGap(tab, x, invLog), drawRefGap(x, invLog); got != want {
				t.Fatalf("eps=%v draw %#016x (bucket %d): gap %d, want %d", eps, x, x>>(63-gapBits), got, want)
			}
		}
		// Binade [2^-b, 2^(1-b)) with a random 52-bit fraction.
		for b := 1; b <= 63; b++ {
			for i := 0; i < 500; i++ {
				check(math.Float64frombits(uint64(1023-b)<<52 | rng.Uint64()>>12))
			}
		}
		for b := int64(0); b < gapBuckets; b++ {
			lo, hi := b<<(63-gapBits), (b+1)<<(63-gapBits)-1
			for _, x := range []int64{lo, lo + 1, hi - 1, hi, lo | rng.Int63()>>gapBits} {
				checkDraw(x)
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
				x := int64(u * (1 << 63))
				checkDraw(x - 1)
				checkDraw(x)
				checkDraw(x + 1)
			}
		}
		check(0x1p-63)
		check(1 - 0x1p-53)
		for i := 0; i < 20000; i++ {
			checkDraw(rng.Int63())
		}
		checkDraw(0)
		checkDraw(1)
		checkDraw(math.MaxInt64)
	}
}

// usedGap is the gap drawFlipMasks takes from the draw x, or -1 for a
// redraw: the table's where it holds one, computeGap's otherwise.
func usedGap(tab *gapTable, x int64, invLog float64) int64 {
	if g := tab.lookup(x); g >= 0 {
		return g
	}
	return computeGap(x, invLog)
}

// drawRefGap specifies usedGap: rand.Float64's value
// u = float64(x)/2⁶³ is redrawn at 0 and 1 and otherwise has gap
// refGap(u, invLog).
func drawRefGap(x int64, invLog float64) int64 {
	u := float64(x) / (1 << 63)
	if u == 0 || u == 1 {
		return -1
	}
	return refGap(u, invLog)
}

// FuzzFlipGap checks the same properties on any draw and any eps in
// (0, 1): u is rand.Float64's value for the Int63 in ubits, and that
// draw's gap is also taken as drawFlipMasks takes it, through the
// eps's gap table.
func FuzzFlipGap(f *testing.F) {
	for i, eps := range flipGapEps {
		f.Add(uint64(i+1)<<59, eps)
	}
	f.Add(uint64(2), 1e-25)                   // u = 2^-63
	f.Add(uint64(1<<63-513)<<1, 0.01)         // u = 1-2^-53, the largest draw
	f.Add(uint64(0x5555555555555555), 1e-300) // a product past 2^63
	f.Add(uint64(1<<64-1), 0.01)              // a draw that rounds to u = 1
	f.Fuzz(func(t *testing.T, ubits uint64, eps float64) {
		if !(eps > 0 && eps < 1) {
			return
		}
		invLog := 1 / math.Log1p(-eps)
		x := int64(ubits >> 1)
		if got, want := usedGap(gapTableFor(eps), x, invLog), drawRefGap(x, invLog); got != want {
			t.Fatalf("eps=%v draw %#016x: drawn gap %d, want %d", eps, x, got, want)
		}
		u := float64(x) / (1 << 63)
		if u == 0 || u == 1 {
			return
		}
		if got, want := flipGap(u, invLog), refGap(u, invLog); got != want {
			t.Fatalf("eps=%v u=%v: gap %d, want %d", eps, u, got, want)
		}
	})
}

// TestGapTableMargin checks that every gap a table holds is the
// truncation of anything a math.Log within 1 ulp of log u could give
// anywhere in its fine bucket: it widens the bucket's edge products by
// (1+ε)/(1−ε) with ε = 3·2⁻⁵³ + 2⁻¹⁰⁵, the bound the gapTable comment
// derives, and asks both to truncate to the entry. Besides the eps
// grid, it builds tables whose invLog puts a coarse edge, or a fine
// edge inside a coarse bucket, a few ulps above an integer product,
// where a table that trusted the computed edge values would hold a gap
// the error bound does not guarantee; the draws at every fine edge
// must still get refGap's gap. Coarse buckets 0 and 8191 must hold no
// gap in any of their fine entries.
func TestGapTableMargin(t *testing.T) {
	const ulpErr = 3*0x1p-53 + 0x1p-105
	var invLogs []float64
	for _, e := range flipGapEps {
		invLogs = append(invLogs, 1/math.Log1p(-e))
	}
	crafted := 0
	craft := func(edge float64) {
		logEdge := math.Log(edge)
		for _, n := range []float64{1, 2, 7, 50} {
			invLog := n / logEdge
			for k := 0; k < 8 && logEdge*invLog < n; k++ {
				invLog = math.Nextafter(invLog, math.Inf(-1))
			}
			if y := logEdge * invLog; y >= n && y <= n*(1+0x1p-50) && -invLog*0x1p-13 < 1 {
				invLogs = append(invLogs, invLog)
				crafted++
			}
		}
	}
	for _, b := range []int{2, 3, 100, 1000, 4096, 4097, 8000, 8190} {
		craft(float64(b) * 0x1p-13)
	}
	for _, f := range []int{17, 803, 8003, 32773, 32774, 64001, 65517} {
		craft(float64(f) * 0x1p-16)
	}
	if crafted < 32 {
		t.Fatalf("only %d invLog values put a bucket edge just above an integer", crafted)
	}
	for _, invLog := range invLogs {
		if -invLog*0x1p-13 >= 1 {
			continue
		}
		tab := newGapTable(invLog)
		for f := 0; f < gapBuckets; f++ {
			g := int64(tab[f])
			if f < gapFine || f >= gapBuckets-gapFine {
				if g != -1 {
					t.Fatalf("invLog=%v: fine bucket %d holds gap %d, want -1", invLog, f, g)
				}
				continue
			}
			if g < 0 {
				continue
			}
			yLo := math.Log(float64(f)*0x1p-16) * invLog
			yHi := math.Log(float64(f+1)*0x1p-16) * invLog
			lo := int64(yHi * (1 - ulpErr) / (1 + ulpErr))
			hi := int64(yLo * (1 + ulpErr) / (1 - ulpErr))
			if lo != g || hi != g {
				t.Fatalf("invLog=%v: fine bucket %d holds gap %d, but a 1-ulp math.Log allows %d to %d", invLog, f, g, lo, hi)
			}
		}
		for f := int64(1); f < gapBuckets; f++ {
			for _, x := range []int64{f<<(63-gapBits) - 1, f << (63 - gapBits)} {
				if got, want := usedGap(tab, x, invLog), drawRefGap(x, invLog); got != want {
					t.Fatalf("invLog=%v draw %#016x: gap %d, want %d", invLog, x, got, want)
				}
			}
		}
	}
}

// TestGapTableCache checks the process-wide table cache: an eps below
// the table range and eps = 1 get nil, the eps last asked for gets its
// table back, and each other eps gets a table of its own, equal to a
// fresh build, in place of the cached one.
func TestGapTableCache(t *testing.T) {
	for _, eps := range []float64{1e-300, 1e-9, 1e-5, 1.2e-4, 1} {
		if gapTableFor(eps) != nil {
			t.Errorf("eps=%v: got a table, want nil", eps)
		}
	}
	if gapTableFor(1.23e-4) == nil {
		t.Error("eps=1.23e-4: got nil, want a table (|invLog| < 2^13)")
	}
	var prev *gapTable
	for i := 0; i < 40; i++ {
		eps := 0.02 + float64(i)*1e-4
		tab := gapTableFor(eps)
		if want := newGapTable(1 / math.Log1p(-eps)); tab == nil || *tab != *want {
			t.Fatalf("eps=%v: cached table differs from a fresh build", eps)
		}
		if tab == prev {
			t.Fatalf("eps=%v: got the previous eps's table", eps)
		}
		if gapTableFor(eps) != tab {
			t.Fatalf("eps=%v: a second lookup built a new table", eps)
		}
		prev = tab
	}
}

// TestGapTableConcurrentDraws draws flip masks from several goroutines
// at once, each cycling through its own sequence of eps values, so
// lookups and rebuilds of the shared table interleave. Every pass must
// match the same draws made without a table, flip for flip and draw
// for draw. CI runs it under -race -count=10.
func TestGapTableConcurrentDraws(t *testing.T) {
	epsList := []float64{0.001, 0.002, 0.003, 0.005, 0.01, 0.0125, 0.02, 0.05, 0.1, 0.2, 0.5, 0.9}
	const goroutines, rounds, nops, words = 6, 24, 300, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]uint64, nops*words)
			want := make([]uint64, nops*words)
			for r := 0; r < rounds; r++ {
				eps := epsList[(g*5+r)%len(epsList)]
				seed := int64(g*rounds + r)
				srcGot, srcWant := NewNoiseSource(seed), NewNoiseSource(seed)
				drawFlipMasks(got, nops, words, eps, srcGot, gapTableFor(eps))
				drawFlipMasks(want, nops, words, eps, srcWant, nil)
				if srcGot.Draws() != srcWant.Draws() {
					t.Errorf("goroutine %d eps=%v: %d draws, want %d", g, eps, srcGot.Draws(), srcWant.Draws())
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("goroutine %d eps=%v: mask %d is %016x, want %016x", g, eps, i, got[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFlipMasksTinyEps pins the saturated gap: at eps this small no
// lane of 400 ops × 8 words is due to flip, yet a product past 2⁶³
// used to convert to MinInt64 and clamp to a zero gap, a flip.
func TestFlipMasksTinyEps(t *testing.T) {
	const nops, words = 400, 8
	masks := make([]uint64, nops*words)
	for _, eps := range []float64{1e-20, 1e-25} {
		drawFlipMasks(masks, nops, words, eps, NewNoiseSource(42), gapTableFor(eps))
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
