package oracle

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
	"statsat/internal/lock"
)

func lockedC17(t testing.TB) *lock.Locked {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	l, err := lock.RLL(gen.C17(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestDeterministicOracle(t *testing.T) {
	l := lockedC17(t)
	o := NewDeterministic(l.Circuit, l.Key)
	if o.NumInputs() != 5 || o.NumOutputs() != 2 {
		t.Fatalf("pinout %d/%d", o.NumInputs(), o.NumOutputs())
	}
	orig := gen.C17()
	pi := make([]bool, 5)
	for m := 0; m < 32; m++ {
		for b := 0; b < 5; b++ {
			pi[b] = m>>uint(b)&1 == 1
		}
		want := orig.Eval(pi, nil, nil)
		got := o.Query(pi)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("oracle(%v) = %v, want %v", pi, got, want)
			}
		}
	}
	if o.Queries() != 32 {
		t.Errorf("query count = %d, want 32", o.Queries())
	}
}

func TestDeterministicRepeatable(t *testing.T) {
	l := lockedC17(t)
	o := NewDeterministic(l.Circuit, l.Key)
	x := []bool{true, false, true, false, true}
	a := o.Query(x)
	b := o.Query(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("deterministic oracle is inconsistent")
		}
	}
}

func TestProbabilisticZeroEpsMatchesDeterministic(t *testing.T) {
	l := lockedC17(t)
	d := NewDeterministic(l.Circuit, l.Key)
	p := NewProbabilistic(l.Circuit, l.Key, 0, 7)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		x := l.Circuit.RandomInputs(rng)
		a := d.Query(x)
		b := p.Query(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("eps=0 probabilistic oracle diverged")
			}
		}
	}
}

func TestProbabilisticIsNoisy(t *testing.T) {
	l := lockedC17(t)
	p := NewProbabilistic(l.Circuit, l.Key, 0.1, 11)
	x := []bool{true, true, false, true, false}
	d := NewDeterministic(l.Circuit, l.Key)
	ref := d.Query(x)
	diffs := 0
	for i := 0; i < 500; i++ {
		y := p.Query(x)
		for j := range y {
			if y[j] != ref[j] {
				diffs++
				break
			}
		}
	}
	if diffs == 0 {
		t.Error("eps=0.1 oracle never deviated in 500 queries")
	}
	if diffs == 500 {
		t.Error("oracle always wrong; error model broken")
	}
}

func TestProbabilisticSeededReproducible(t *testing.T) {
	l := lockedC17(t)
	a := NewProbabilistic(l.Circuit, l.Key, 0.05, 99)
	b := NewProbabilistic(l.Circuit, l.Key, 0.05, 99)
	x := []bool{false, true, true, false, true}
	for i := 0; i < 100; i++ {
		ya, yb := a.Query(x), b.Query(x)
		for j := range ya {
			if ya[j] != yb[j] {
				t.Fatal("same seed produced different noise streams")
			}
		}
	}
}

// TestProbabilisticReset checks that a used chip reset to a fresh
// source of a seed answers, block and scalar queries alike, what a
// new chip of that seed and eps answers, counting queries and draws
// from zero, and that the source it was reset to does not advance.
func TestProbabilisticReset(t *testing.T) {
	l := lockedC17(t)
	x := []bool{false, true, true, false, true}
	used := NewProbabilistic(l.Circuit, l.Key, 0.2, 5)
	SignalProbs(context.Background(), used, x, 1000)
	for _, eps := range []float64{0.01, 0.05, 0.3} {
		start := circuit.NewNoiseSource(77)
		used.Reset(eps, start)
		fresh := NewProbabilistic(l.Circuit, l.Key, eps, 77)
		if used.Queries() != 0 || used.NoiseDraws() != 0 || used.Eps() != eps {
			t.Fatalf("eps=%v: reset chip has %d queries, %d draws, eps %v", eps, used.Queries(), used.NoiseDraws(), used.Eps())
		}
		for i := 0; i < 40; i++ {
			a, b := used.QueryBlock(x, 3), fresh.QueryBlock(x, 3)
			for j := range b {
				if a[j] != b[j] {
					t.Fatalf("eps=%v: block %d word %d is %016x, want %016x", eps, i, j, a[j], b[j])
				}
			}
			ya, yb := used.Query(x), fresh.Query(x)
			for j := range yb {
				if ya[j] != yb[j] {
					t.Fatalf("eps=%v: query %d output %d differs", eps, i, j)
				}
			}
		}
		if used.NoiseDraws() != fresh.NoiseDraws() || used.Queries() != fresh.Queries() {
			t.Fatalf("eps=%v: reset chip at %d draws, %d queries; fresh chip at %d, %d",
				eps, used.NoiseDraws(), used.Queries(), fresh.NoiseDraws(), fresh.Queries())
		}
		if start.Draws() != 0 {
			t.Fatalf("eps=%v: the source reset from advanced to %d draws", eps, start.Draws())
		}
	}
}

func TestSignalProbsConvergeToBER(t *testing.T) {
	// Single BUF gate circuit: P(output wrong) = eps exactly.
	c := circuit.New("buf")
	a := c.AddInput("a")
	b := c.AddGate(circuit.Buf, "b", a)
	c.AddOutput(b, "")
	const eps = 0.3
	o := NewProbabilistic(c, nil, eps, 5)
	probs := SignalProbs(context.Background(), o, []bool{true}, 20000)
	// Correct value 1, flips w.p. 0.3 → signal prob ≈ 0.7.
	if math.Abs(probs[0]-0.7) > 0.02 {
		t.Errorf("signal prob %.4f, want ≈0.70", probs[0])
	}
	// Blocked sampling rounds up to whole 64-lane words.
	if q := o.Queries(); q < 20000 || q >= 20000+circuit.BatchLanes {
		t.Errorf("queries = %d, want 20000 rounded up to a word boundary", q)
	}
}

func TestSignalProbsPanicsOnZeroNs(t *testing.T) {
	l := lockedC17(t)
	o := NewDeterministic(l.Circuit, l.Key)
	defer func() {
		if recover() == nil {
			t.Error("want panic for ns=0")
		}
	}()
	SignalProbs(context.Background(), o, []bool{true, true, true, true, true}, 0)
}

func TestUncertainties(t *testing.T) {
	u := Uncertainties([]float64{0, 1, 0.5, 0.2, 0.8})
	want := []float64{0, 0, 0.5, 0.2, 0.2}
	for i := range want {
		if math.Abs(u[i]-want[i]) > 1e-12 {
			t.Errorf("U[%d] = %v, want %v", i, u[i], want[i])
		}
	}
}

func TestPatternCounts(t *testing.T) {
	l := lockedC17(t)
	d := NewDeterministic(l.Circuit, l.Key)
	x := []bool{true, false, false, true, true}
	counts := PatternCounts(context.Background(), d, x, 25)
	if len(counts) != 1 {
		t.Fatalf("deterministic oracle produced %d patterns", len(counts))
	}
	for p, n := range counts {
		if n != 25 {
			t.Errorf("pattern count = %d, want 25", n)
		}
		bits := PatternToBits(p)
		ref := d.Query(x)
		for i := range ref {
			if bits[i] != ref[i] {
				t.Error("pattern decode mismatch")
			}
		}
	}
}

func TestPatternCountsNoisySpreads(t *testing.T) {
	l := lockedC17(t)
	p := NewProbabilistic(l.Circuit, l.Key, 0.15, 21)
	counts := PatternCounts(context.Background(), p, []bool{true, true, true, true, true}, 400)
	if len(counts) < 2 {
		t.Errorf("noisy oracle produced only %d distinct patterns", len(counts))
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 400 {
		t.Errorf("pattern counts sum to %d", total)
	}
}

func TestProbabilisticAccessors(t *testing.T) {
	l := lockedC17(t)
	p := NewProbabilistic(l.Circuit, l.Key, 0.07, 1)
	if p.Eps() != 0.07 {
		t.Errorf("Eps = %v", p.Eps())
	}
	if p.NumInputs() != 5 || p.NumOutputs() != 2 {
		t.Errorf("pinout %d/%d", p.NumInputs(), p.NumOutputs())
	}
}

func TestPatternToBitsEmpty(t *testing.T) {
	if len(PatternToBits("")) != 0 {
		t.Error("empty pattern should decode to empty slice")
	}
}

func TestSignalProbsBatchMatchesScalar(t *testing.T) {
	// Same circuit, same eps: blocked-path and scalar-path signal
	// probabilities must agree statistically.
	l := lockedC17(t)
	x := []bool{true, false, true, true, false}
	const ns = 6400
	batch := SignalProbs(context.Background(), NewProbabilistic(l.Circuit, l.Key, 0.08, 41), x, ns)
	// Force the scalar path through a wrapper that hides QueryBlock.
	scalarOracle := scalarOnly{NewProbabilistic(l.Circuit, l.Key, 0.08, 42)}
	scalar := SignalProbs(context.Background(), scalarOracle, x, ns)
	for i := range batch {
		if d := batch[i] - scalar[i]; d > 0.03 || d < -0.03 {
			t.Errorf("output %d: batch %.4f vs scalar %.4f", i, batch[i], scalar[i])
		}
	}
}

// scalarOnly hides the BlockQuerier interface of the wrapped oracle.
// Explicit delegation, not embedding: an embedded *Probabilistic would
// promote QueryBlock and defeat the hiding.
type scalarOnly struct{ p *Probabilistic }

func (s scalarOnly) Query(x []bool) []bool { return s.p.Query(x) }
func (s scalarOnly) NumInputs() int        { return s.p.NumInputs() }
func (s scalarOnly) NumOutputs() int       { return s.p.NumOutputs() }
func (s scalarOnly) Queries() int64        { return s.p.Queries() }

func TestPatternCountsBatchTotals(t *testing.T) {
	l := lockedC17(t)
	p := NewProbabilistic(l.Circuit, l.Key, 0.1, 51)
	const ns = 150 // 2 full passes + 22 scalar
	counts := PatternCounts(context.Background(), p, []bool{true, true, true, false, false}, ns)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != ns {
		t.Errorf("pattern total = %d, want %d", total, ns)
	}
}

func TestPatternCountsBatchVsScalarDistribution(t *testing.T) {
	l := lockedC17(t)
	x := []bool{false, true, false, true, true}
	const ns = 6400
	batch := PatternCounts(context.Background(), NewProbabilistic(l.Circuit, l.Key, 0.06, 61), x, ns)
	scalar := PatternCounts(context.Background(), scalarOnly{NewProbabilistic(l.Circuit, l.Key, 0.06, 62)}, x, ns)
	// The dominant pattern must agree and have similar mass.
	bestOf := func(m map[string]int) (string, int) {
		bp, bn := "", -1
		for p, n := range m {
			if n > bn {
				bp, bn = p, n
			}
		}
		return bp, bn
	}
	bp, bn := bestOf(batch)
	sp, sn := bestOf(scalar)
	if bp != sp {
		t.Errorf("dominant patterns differ: %q vs %q", bp, sp)
	}
	if d := float64(bn-sn) / ns; d > 0.05 || d < -0.05 {
		t.Errorf("dominant masses differ: %d vs %d", bn, sn)
	}
}

func TestOracleKeyWidthPanics(t *testing.T) {
	l := lockedC17(t)
	defer func() {
		if recover() == nil {
			t.Error("want panic for wrong key width")
		}
	}()
	NewDeterministic(l.Circuit, []bool{true})
}

func TestProbabilisticEpsRangePanics(t *testing.T) {
	l := lockedC17(t)
	defer func() {
		if recover() == nil {
			t.Error("want panic for eps out of range")
		}
	}()
	NewProbabilistic(l.Circuit, l.Key, 1.5, 1)
}

func TestOracleDoesNotAliasKey(t *testing.T) {
	l := lockedC17(t)
	key := append([]bool(nil), l.Key...)
	o := NewDeterministic(l.Circuit, key)
	x := []bool{true, true, true, true, true}
	before := o.Query(x)
	key[0] = !key[0] // mutate caller's slice
	after := o.Query(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("oracle aliased the caller's key slice")
		}
	}
}

func BenchmarkProbabilisticQueryScale8(b *testing.B) {
	bm, _ := gen.ByName("c3540")
	orig := bm.BuildScaled(8)
	rng := rand.New(rand.NewSource(1))
	l, err := lock.RLL(orig, 16, rng)
	if err != nil {
		b.Fatal(err)
	}
	o := NewProbabilistic(l.Circuit, l.Key, 0.0125, 3)
	x := orig.RandomInputs(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Query(x)
	}
}

func BenchmarkSignalProbs500(b *testing.B) {
	bm, _ := gen.ByName("c3540")
	orig := bm.BuildScaled(16)
	rng := rand.New(rand.NewSource(1))
	l, err := lock.RLL(orig, 16, rng)
	if err != nil {
		b.Fatal(err)
	}
	o := NewProbabilistic(l.Circuit, l.Key, 0.0125, 3)
	x := orig.RandomInputs(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SignalProbs(context.Background(), o, x, 500)
	}
}

// BenchmarkSignalProbs500Into is the scratch-reuse path SignalProbs
// delegates to; the allocs/op delta against BenchmarkSignalProbs500
// is exactly the per-call result slice.
func BenchmarkSignalProbs500Into(b *testing.B) {
	bm, _ := gen.ByName("c3540")
	orig := bm.BuildScaled(16)
	rng := rand.New(rand.NewSource(1))
	l, err := lock.RLL(orig, 16, rng)
	if err != nil {
		b.Fatal(err)
	}
	o := NewProbabilistic(l.Circuit, l.Key, 0.0125, 3)
	x := orig.RandomInputs(rng)
	var dst []float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = SignalProbsInto(context.Background(), o, x, 500, dst)
	}
}

func TestQueryBlockCountsQueries(t *testing.T) {
	l := lockedC17(t)
	p := NewProbabilistic(l.Circuit, l.Key, 0.05, 31)
	x := []bool{true, true, false, false, true}
	p.QueryBlock(x, 2)
	if want := int64(2 * circuit.BatchLanes); p.Queries() != want {
		t.Errorf("queries = %d, want %d", p.Queries(), want)
	}
}

func TestBlockWordsBoundsPanics(t *testing.T) {
	l := lockedC17(t)
	p := NewProbabilistic(l.Circuit, l.Key, 0.05, 31)
	for _, w := range []int{0, circuit.MaxBlockWords + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBlockWords(%d) did not panic", w)
				}
			}()
			p.SetBlockWords(w)
		}()
	}
	p.SetBlockWords(2)
	if p.BlockWords() != 2 {
		t.Fatalf("BlockWords = %d after SetBlockWords(2)", p.BlockWords())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("QueryBlock wider than BlockWords did not panic")
			}
		}()
		p.QueryBlock([]bool{true, true, false, false, true}, 3)
	}()
}

// TestSignalProbsBlockWidthParity is the oracle-level face of the
// determinism contract: the estimated probabilities AND the recorded
// query counts must be byte-identical at every block width and on the
// single-word path (W=1), given the same noise seed. The comparisons
// are exact — identical one-counts divided by identical totals — not
// statistical.
func TestSignalProbsBlockWidthParity(t *testing.T) {
	l := lockedC17(t)
	x := []bool{true, false, true, true, false}
	const ns = 1000 // 16 words: exercises full and partial blocks at every width
	const eps, seed = 0.07, 93

	refOracle := NewProbabilistic(l.Circuit, l.Key, eps, seed)
	refOracle.SetBlockWords(1)
	ref := SignalProbs(context.Background(), refOracle, x, ns)
	refQueries := refOracle.Queries()

	for _, w := range []int{2, 4, 8} {
		p := NewProbabilistic(l.Circuit, l.Key, eps, seed)
		p.SetBlockWords(w)
		got := SignalProbs(context.Background(), p, x, ns)
		if p.Queries() != refQueries {
			t.Errorf("W=%d: %d queries, want %d", w, p.Queries(), refQueries)
		}
		for j := range ref {
			//lint:ignore floateq identical integer one-counts over identical totals must divide to identical float64s — approximate equality would hide a lost sample
			if got[j] != ref[j] {
				t.Errorf("W=%d output %d: %v, want %v", w, j, got[j], ref[j])
			}
		}
	}
}

// TestPatternCountsBlockWidthParity checks the blocked PatternCounts
// path tallies exactly the same patterns at every block width as on
// the single-word path (W=1), including the scalar remainder that
// follows the whole-word blocks (the rng hand-off between blocked and
// scalar sampling must be width-independent too).
func TestPatternCountsBlockWidthParity(t *testing.T) {
	l := lockedC17(t)
	x := []bool{false, true, true, false, true}
	const ns = 2*circuit.BatchLanes + 22 // blocks + scalar tail
	const eps, seed = 0.09, 77

	refOracle := NewProbabilistic(l.Circuit, l.Key, eps, seed)
	refOracle.SetBlockWords(1)
	ref := PatternCounts(context.Background(), refOracle, x, ns)
	refQueries := refOracle.Queries()

	for _, w := range []int{2, 4, 8} {
		p := NewProbabilistic(l.Circuit, l.Key, eps, seed)
		p.SetBlockWords(w)
		got := PatternCounts(context.Background(), p, x, ns)
		if p.Queries() != refQueries {
			t.Errorf("W=%d: %d queries, want %d", w, p.Queries(), refQueries)
		}
		if len(got) != len(ref) {
			t.Fatalf("W=%d: %d distinct patterns, want %d", w, len(got), len(ref))
		}
		for pat, n := range ref {
			if got[pat] != n {
				t.Errorf("W=%d pattern %q: %d, want %d", w, pat, got[pat], n)
			}
		}
	}
}
