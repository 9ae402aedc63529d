package circuit

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// evalNoisyBatch is the single-word reference evaluator that the
// blocked kernels are held to: BatchLanes noisy samples in one
// bit-parallel pass, one flipStream mask per compiled op in schedule
// order. It is a deliberately plain restatement of the error model —
// no pre-drawn mask columns, no width-specialised kernels — so
// TestEvalNoisyBlockParityWithBatch pins EvalNoisyBlockInto's bits and
// rng consumption to it. The returned slice holds one word per primary
// output; scratch, if cap-sufficient (NumGates words), backs the
// intermediate wires.
func (c *Circuit) evalNoisyBatch(pi, key []bool, eps float64, rng *rand.Rand, scratch []uint64) []uint64 {
	if len(pi) != len(c.PIs) || len(key) != len(c.Keys) {
		panic(fmt.Sprintf("circuit %q: evalNoisyBatch input width mismatch (%d/%d PIs, %d/%d keys)",
			c.Name, len(pi), len(c.PIs), len(key), len(c.Keys)))
	}
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("circuit %q: eps %v out of [0,1]", c.Name, eps))
	}
	p := c.program()
	var w []uint64
	if cap(scratch) >= len(c.Gates) {
		w = scratch[:len(c.Gates)]
	} else {
		w = make([]uint64, len(c.Gates))
	}
	for i, id := range c.PIs {
		w[id] = broadcast(pi[i])
	}
	for i, id := range c.Keys {
		w[id] = broadcast(key[i])
	}
	for _, id := range p.const0 {
		w[id] = 0
	}
	for _, id := range p.const1 {
		w[id] = ^uint64(0)
	}
	// Geometric-skipping state shared across all gates: one virtual
	// stream of lane slots (64 per gate), advanced once per compiled op
	// in schedule order.
	skip := newFlipStream(eps, rng)

	fanin := p.fanin
	for i := range p.ops {
		op := &p.ops[i]
		fan := fanin[op.off : op.off+op.nfan]
		var v uint64
		switch op.typ {
		case Buf:
			v = w[fan[0]]
		case Not:
			v = ^w[fan[0]]
		case And, Nand:
			v = ^uint64(0)
			for _, f := range fan {
				v &= w[f]
			}
			if op.typ == Nand {
				v = ^v
			}
		case Or, Nor:
			v = 0
			for _, f := range fan {
				v |= w[f]
			}
			if op.typ == Nor {
				v = ^v
			}
		case Xor, Xnor:
			v = 0
			for _, f := range fan {
				v ^= w[f]
			}
			if op.typ == Xnor {
				v = ^v
			}
		case Mux:
			s := w[fan[0]]
			v = (^s & w[fan[1]]) | (s & w[fan[2]])
		default:
			panic(fmt.Sprintf("circuit %q: unsupported gate type %v", c.Name, op.typ))
		}
		if eps > 0 {
			v ^= skip.nextMask()
		}
		w[op.out] = v
	}
	out := make([]uint64, len(c.POs))
	for i, po := range c.POs {
		out[i] = w[po]
	}
	return out
}

// flipStream produces per-gate 64-bit flip masks where each bit is set
// independently with probability eps, using geometric skipping over
// the lane stream.
type flipStream struct {
	eps    float64
	rng    *rand.Rand
	invLog float64 // 1 / log(1-eps)
	gap    int64   // lanes until the next flip, relative to the
	// current gate's lane 0
}

func newFlipStream(eps float64, rng *rand.Rand) flipStream {
	fs := flipStream{eps: eps, rng: rng}
	switch {
	case eps <= 0:
		fs.gap = math.MaxInt64
	case eps >= 1:
		fs.gap = 0
		fs.invLog = 0
	default:
		fs.invLog = 1 / math.Log1p(-eps)
		fs.gap = fs.draw()
	}
	return fs
}

// draw samples a geometric gap (number of non-flipped lanes before the
// next flipped one) with refGap; drawFlipMasks draws the same gaps.
func (fs *flipStream) draw() int64 {
	u := fs.rng.Float64()
	for u == 0 {
		u = fs.rng.Float64()
	}
	return refGap(u, fs.invLog)
}

// refGap is the specification of the geometric gap for u in (0, 1) and
// invLog = 1/log(1-eps): the truncated product of math.Log(u) and
// invLog, clamped at zero. A product at or past maxFlipGap, far beyond
// any pass's lanes, saturates there: it ends the pass without
// overflowing int64 (which would otherwise happen once eps ≲ 1e-19)
// and keeps gap += 1+g from wrapping.
func refGap(u, invLog float64) int64 {
	y := math.Log(u) * invLog
	if !(y < maxFlipGap) {
		return maxFlipGap
	}
	g := int64(y)
	if g < 0 {
		g = 0
	}
	return g
}

// nextMask returns the flip mask for the next gate (64 lanes).
func (fs *flipStream) nextMask() uint64 {
	if fs.eps <= 0 {
		return 0
	}
	if fs.eps >= 1 {
		return ^uint64(0)
	}
	var m uint64
	for fs.gap < BatchLanes {
		m |= 1 << uint(fs.gap)
		fs.gap += 1 + fs.draw()
	}
	fs.gap -= BatchLanes
	return m
}

func TestEvalNoisyBatchZeroEpsMatchesScalar(t *testing.T) {
	c := randomCircuit(3, 10, 80, 6)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		pi := c.RandomInputs(rng)
		want := c.Eval(pi, nil, nil)
		words := c.evalNoisyBatch(pi, nil, 0, rng, nil)
		for i, w := range words {
			expect := broadcast(want[i])
			if w != expect {
				t.Fatalf("output %d: batch word %016x, want %016x", i, w, expect)
			}
		}
	}
}

func TestEvalNoisyBatchEpsOne(t *testing.T) {
	// eps=1: every gate always flips; equal to eps=1 scalar semantics.
	c := New("inv")
	a := c.AddInput("a")
	b := c.AddGate(Buf, "b", a)
	c.AddOutput(b, "")
	rng := rand.New(rand.NewSource(2))
	words := c.evalNoisyBatch([]bool{true}, nil, 1, rng, nil)
	if words[0] != 0 {
		t.Errorf("BUF(1) with eps=1 must be all-zero lanes, got %016x", words[0])
	}
}

func TestEvalNoisyBatchFlipRate(t *testing.T) {
	// Single BUF: flip rate per lane must converge to eps.
	c := New("buf")
	a := c.AddInput("a")
	b := c.AddGate(Buf, "b", a)
	c.AddOutput(b, "")
	rng := rand.New(rand.NewSource(3))
	const eps = 0.07
	const passes = 4000 // 256k lanes
	flips := 0
	for i := 0; i < passes; i++ {
		w := c.evalNoisyBatch([]bool{false}, nil, eps, rng, nil)
		flips += bits.OnesCount64(w[0])
	}
	got := float64(flips) / float64(passes*BatchLanes)
	if math.Abs(got-eps) > 0.004 {
		t.Errorf("lane flip rate %.5f, want ≈%.2f", got, eps)
	}
}

func TestEvalNoisyBatchLanesIndependent(t *testing.T) {
	// Correlation check between two lanes of the same word: the
	// fraction of passes where lanes 0 and 17 flip together should be
	// ≈ eps², not ≈ eps.
	c := New("buf")
	a := c.AddInput("a")
	b := c.AddGate(Buf, "b", a)
	c.AddOutput(b, "")
	rng := rand.New(rand.NewSource(4))
	const eps = 0.1
	const passes = 30000
	both, either := 0, 0
	for i := 0; i < passes; i++ {
		w := c.evalNoisyBatch([]bool{false}, nil, eps, rng, nil)
		l0 := w[0]&1 != 0
		l17 := w[0]&(1<<17) != 0
		if l0 && l17 {
			both++
		}
		if l0 || l17 {
			either++
		}
	}
	pBoth := float64(both) / passes
	if math.Abs(pBoth-eps*eps) > 0.005 {
		t.Errorf("joint flip rate %.5f, want ≈%.4f (lanes correlated?)", pBoth, eps*eps)
	}
}

func TestEvalNoisyBatchStatisticalAgreementWithScalar(t *testing.T) {
	// Per-output signal probabilities from batch and scalar paths must
	// agree on a real circuit.
	c := randomCircuit(5, 12, 150, 8)
	rng := rand.New(rand.NewSource(6))
	pi := c.RandomInputs(rng)
	const eps = 0.02

	scalarCounts := make([]int, c.NumPOs())
	const ns = 12800
	scratch := make([]bool, c.NumGates())
	for i := 0; i < ns; i++ {
		y := c.EvalNoisy(pi, nil, eps, rng, scratch)
		for j, b := range y {
			if b {
				scalarCounts[j]++
			}
		}
	}
	batchCounts := make([]int, c.NumPOs())
	wscratch := make([]uint64, c.NumGates())
	for i := 0; i < ns/BatchLanes; i++ {
		words := c.evalNoisyBatch(pi, nil, eps, rng, wscratch)
		for j, w := range words {
			batchCounts[j] += bits.OnesCount64(w)
		}
	}
	for j := range scalarCounts {
		ps := float64(scalarCounts[j]) / ns
		pb := float64(batchCounts[j]) / ns
		if math.Abs(ps-pb) > 0.03 {
			t.Errorf("output %d: scalar P=%.4f batch P=%.4f", j, ps, pb)
		}
	}
}

func TestEvalNoisyBatchSeedDeterminism(t *testing.T) {
	c := randomCircuit(7, 8, 60, 4)
	pi := make([]bool, 8)
	a := c.evalNoisyBatch(pi, nil, 0.05, rand.New(rand.NewSource(9)), nil)
	b := c.evalNoisyBatch(pi, nil, 0.05, rand.New(rand.NewSource(9)), nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different batch words")
		}
	}
}

func TestEvalNoisyBatchPanics(t *testing.T) {
	c := randomCircuit(8, 4, 10, 2)
	rng := rand.New(rand.NewSource(1))
	t.Run("width", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		c.evalNoisyBatch([]bool{true}, nil, 0.1, rng, nil)
	})
	t.Run("eps", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		c.evalNoisyBatch(make([]bool, 4), nil, 1.5, rng, nil)
	})
}

func TestFlipStreamMaskDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fs := newFlipStream(0.25, rng)
	total := 0
	const n = 20000
	for i := 0; i < n; i++ {
		total += bits.OnesCount64(fs.nextMask())
	}
	got := float64(total) / float64(n*BatchLanes)
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("mask density %.4f, want 0.25", got)
	}
}

func TestFlipStreamEdgeEps(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	zero := newFlipStream(0, rng)
	if m := zero.nextMask(); m != 0 {
		t.Error("eps=0 mask must be empty")
	}
	one := newFlipStream(1, rng)
	if m := one.nextMask(); m != ^uint64(0) {
		t.Error("eps=1 mask must be full")
	}
}

func TestMuxBatchSemantics(t *testing.T) {
	c := New("mux")
	s := c.AddInput("s")
	a := c.AddInput("a")
	b := c.AddInput("b")
	m := c.AddGate(Mux, "m", s, a, b)
	c.AddOutput(m, "")
	rng := rand.New(rand.NewSource(13))
	for _, in := range [][]bool{{false, true, false}, {true, true, false}, {false, false, true}, {true, false, true}} {
		want := broadcast(c.Eval(in, nil, nil)[0])
		got := c.evalNoisyBatch(in, nil, 0, rng, nil)[0]
		if got != want {
			t.Errorf("mux(%v): %016x want %016x", in, got, want)
		}
	}
}
