package circuit

import (
	"math/rand"
	"testing"
)

// TestEvalNoisyBlockParityWithBatch is the block-width determinism
// contract: word column k of one blocked pass must be bit-identical to
// the k-th of `words` successive 64-lane passes over rand.New of the
// same stream. The eps grid includes 0.001 and 0.01, the benchmark
// workloads' values.
func TestEvalNoisyBlockParityWithBatch(t *testing.T) {
	c := randomCircuit(3, 12, 400, 10)
	pi := c.RandomInputs(rand.New(rand.NewSource(77)))
	for _, eps := range []float64{0, 0.001, 0.003, 0.01, 0.05, 0.5, 1} {
		for _, words := range []int{1, 2, 4, 8} {
			srcA, srcB := NewNoiseSource(42), NewNoiseSource(42)
			rngB := rand.New(srcB)
			var scratch BlockScratch
			blk := c.EvalNoisyBlockInto(nil, pi, nil, eps, srcA, words, &scratch)
			for k := 0; k < words; k++ {
				ref := c.evalNoisyBatch(pi, nil, eps, rngB, nil)
				for i := range ref {
					if blk[i*words+k] != ref[i] {
						t.Fatalf("eps=%v words=%d: output %d word %d differs: %016x vs %016x",
							eps, words, i, k, blk[i*words+k], ref[i])
					}
				}
			}
			// The two streams must also end in the same state, with the
			// same count: equal consumption is what keeps later passes
			// aligned too, and the count is what resume skips by.
			if srcA.Draws() != srcB.Draws() {
				t.Fatalf("eps=%v words=%d: %d draws counted, reference took %d", eps, words, srcA.Draws(), srcB.Draws())
			}
			if srcA.Int63() != rngB.Int63() {
				t.Fatalf("eps=%v words=%d: rng streams diverged", eps, words)
			}
		}
	}
}

// TestEvalNoisyBlockScratchReuse checks that a reused scratch and
// output buffer produce the same words as fresh allocations.
func TestEvalNoisyBlockScratchReuse(t *testing.T) {
	c := randomCircuit(4, 8, 200, 6)
	pi := c.RandomInputs(rand.New(rand.NewSource(5)))
	var scratch BlockScratch
	out := make([]uint64, 0, c.NumPOs()*4)
	a := c.EvalNoisyBlockInto(out, pi, nil, 0.01, NewNoiseSource(9), 4, &scratch)
	b := c.EvalNoisyBlockInto(nil, pi, nil, 0.01, NewNoiseSource(9), 4, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("word %d differs between reused and fresh buffers", i)
		}
	}
	// Mixed widths on the same scratch must not cross-contaminate.
	c.EvalNoisyBlockInto(a, pi, nil, 0.01, NewNoiseSource(11), 2, &scratch)
	d := c.EvalNoisyBlockInto(nil, pi, nil, 0.01, NewNoiseSource(9), 4, &scratch)
	for i := range b {
		if b[i] != d[i] {
			t.Fatalf("word %d differs after width change on shared scratch", i)
		}
	}
}

func TestEvalNoisyBlockZeroEpsMatchesScalar(t *testing.T) {
	c := randomCircuit(6, 10, 300, 8)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		pi := c.RandomInputs(rng)
		want := c.Eval(pi, nil, nil)
		blk := c.EvalNoisyBlockInto(nil, pi, nil, 0, NewNoiseSource(3), 4, nil)
		for i, b := range want {
			for k := 0; k < 4; k++ {
				w := blk[i*4+k]
				if (b && w != ^uint64(0)) || (!b && w != 0) {
					t.Fatalf("trial %d output %d word %d: %016x, want all-%v", trial, i, k, w, b)
				}
			}
		}
	}
}

func TestEvalNoisyBlockPanics(t *testing.T) {
	c := New("p")
	a := c.AddInput("a")
	c.AddOutput(c.AddGate(Not, "n", a), "y")
	src := NewNoiseSource(1)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("width", func() { c.EvalNoisyBlockInto(nil, []bool{true, false}, nil, 0.1, src, 2, nil) })
	expectPanic("eps", func() { c.EvalNoisyBlockInto(nil, []bool{true}, nil, 1.5, src, 2, nil) })
	expectPanic("words-low", func() { c.EvalNoisyBlockInto(nil, []bool{true}, nil, 0.1, src, 0, nil) })
	expectPanic("words-high", func() { c.EvalNoisyBlockInto(nil, []bool{true}, nil, 0.1, src, MaxBlockWords+1, nil) })
}

func TestDefaultBlockWords(t *testing.T) {
	if w := DefaultBlockWords(2000); w != MaxBlockWords {
		t.Errorf("2k gates: width %d, want %d", w, MaxBlockWords)
	}
	if w := DefaultBlockWords(100000); w < 1 || w > MaxBlockWords {
		t.Errorf("100k gates: width %d out of range", w)
	}
	big := DefaultBlockWords(1 << 22)
	if big != 1 {
		t.Errorf("4M gates: width %d, want 1 (nothing fits the cache budget)", big)
	}
	if DefaultBlockWords(0) < 1 {
		t.Error("degenerate gate count must still give width >= 1")
	}
}

// TestProgramInvalidation ensures the compiled schedule is rebuilt
// after the netlist changes.
func TestProgramInvalidation(t *testing.T) {
	c := New("p")
	a := c.AddInput("a")
	n1 := c.AddGate(Not, "n1", a)
	c.AddOutput(n1, "y")
	if got := c.NumLogicOps(); got != 1 {
		t.Fatalf("ops = %d, want 1", got)
	}
	n2 := c.AddGate(Not, "n2", n1)
	c.AddOutput(n2, "y2")
	if got := c.NumLogicOps(); got != 2 {
		t.Fatalf("ops after AddGate = %d, want 2 (stale program cache)", got)
	}
}

func benchEvalNoisyBlock2k(b *testing.B, eps float64, words int) {
	c := randomCircuit(1, 64, 2000, 32)
	pi := c.RandomInputs(rand.New(rand.NewSource(3)))
	src := NewNoiseSource(4)
	var scratch BlockScratch
	out := make([]uint64, c.NumPOs()*words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = c.EvalNoisyBlockInto(out, pi, nil, eps, src, words, &scratch)
	}
	// words × 64 lanes per iteration: samples/op for comparison across
	// block widths.
	b.ReportMetric(float64(words*BatchLanes), "samples/op")
}

func BenchmarkEvalNoisyBlock2kW8(b *testing.B) { benchEvalNoisyBlock2k(b, 0.01, 8) }

// The LowEps pair measures the near-deterministic regime (eps=1e-3,
// where large circuits actually operate). Flip drawing costs one draw
// per flip, so it grows with eps and weighs more at the eps=0.01
// setting above; at small eps the gate evaluation dominates and the
// block width's amortisation of the schedule walk is fully visible.
func BenchmarkEvalNoisyBlock2kW1LowEps(b *testing.B) { benchEvalNoisyBlock2k(b, 0.001, 1) }
func BenchmarkEvalNoisyBlock2kW8LowEps(b *testing.B) { benchEvalNoisyBlock2k(b, 0.001, 8) }
