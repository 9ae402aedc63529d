package errprop

import (
	"math"
	"math/rand"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
	"statsat/internal/lock"
)

func TestSingleBufGate(t *testing.T) {
	c := circuit.New("buf")
	a := c.AddInput("a")
	b := c.AddGate(circuit.Buf, "b", a)
	c.AddOutput(b, "")
	const eps = 0.2
	e, err := NewEstimator(c).OutputBERsInto(nil, []bool{true}, nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e[0]-eps) > 1e-12 {
		t.Errorf("BER = %v, want %v", e[0], eps)
	}
}

func TestTwoBufChain(t *testing.T) {
	// Two noisy buffers: wrong iff exactly one flips:
	// p = eps(1-eps) + (1-eps)eps.
	c := circuit.New("chain")
	a := c.AddInput("a")
	b1 := c.AddGate(circuit.Buf, "b1", a)
	b2 := c.AddGate(circuit.Buf, "b2", b1)
	c.AddOutput(b2, "")
	const eps = 0.1
	e, err := NewEstimator(c).OutputBERsInto(nil, []bool{false}, nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * eps * (1 - eps)
	if math.Abs(e[0]-want) > 1e-12 {
		t.Errorf("BER = %v, want %v", e[0], want)
	}
}

func TestAndGateMasking(t *testing.T) {
	// AND with inputs (0,0): a single input flip cannot change the
	// output (still 0); both must flip. With noise-free inputs feeding
	// noisy bufs... construct: in0,in1 -> BUF -> AND.
	c := circuit.New("and")
	a := c.AddInput("a")
	b := c.AddInput("b")
	ba := c.AddGate(circuit.Buf, "ba", a)
	bb := c.AddGate(circuit.Buf, "bb", b)
	g := c.AddGate(circuit.And, "g", ba, bb)
	c.AddOutput(g, "")
	const eps = 0.2
	e, err := NewEstimator(c).OutputBERsInto(nil, []bool{false, false}, nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	// q = P(both buf outputs flipped) = eps². BER = q(1-eps)+(1-q)eps.
	q := eps * eps
	want := q*(1-eps) + (1-q)*eps
	if math.Abs(e[0]-want) > 1e-12 {
		t.Errorf("BER = %v, want %v", e[0], want)
	}
	// With inputs (1,1) a single flip changes the output: q = 1-(1-eps)².
	e2, _ := NewEstimator(c).OutputBERsInto(nil, []bool{true, true}, nil, eps)
	q2 := 1 - (1-eps)*(1-eps)
	want2 := q2*(1-eps) + (1-q2)*eps
	if math.Abs(e2[0]-want2) > 1e-12 {
		t.Errorf("BER(1,1) = %v, want %v", e2[0], want2)
	}
}

func TestXorAlwaysPropagates(t *testing.T) {
	// XOR propagates any odd number of input flips regardless of values.
	c := circuit.New("xor")
	a := c.AddInput("a")
	b := c.AddInput("b")
	ba := c.AddGate(circuit.Buf, "ba", a)
	bb := c.AddGate(circuit.Buf, "bb", b)
	g := c.AddGate(circuit.Xor, "g", ba, bb)
	c.AddOutput(g, "")
	const eps = 0.15
	for _, in := range [][]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		e, err := NewEstimator(c).OutputBERsInto(nil, in, nil, eps)
		if err != nil {
			t.Fatal(err)
		}
		q := 2 * eps * (1 - eps) // exactly one input flipped
		want := q*(1-eps) + (1-q)*eps
		if math.Abs(e[0]-want) > 1e-12 {
			t.Errorf("BER(%v) = %v, want %v", in, e[0], want)
		}
	}
}

func TestEpsZeroGivesZero(t *testing.T) {
	c := gen.C17()
	e, err := NewEstimator(c).OutputBERsInto(nil, []bool{true, false, true, false, true}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range e {
		if v != 0 {
			t.Errorf("output %d BER = %v with eps=0", i, v)
		}
	}
}

func TestEpsRangeError(t *testing.T) {
	c := gen.C17()
	if _, err := NewEstimator(c).OutputBERsInto(nil, []bool{true, false, true, false, true}, nil, -0.1); err == nil {
		t.Error("want error for negative eps")
	}
	if _, err := NewEstimator(c).OutputBERsInto(nil, []bool{true, false, true, false, true}, nil, 1.1); err == nil {
		t.Error("want error for eps>1")
	}
}

// TestMonteCarloAgreementTree compares the analytic estimate with
// Monte-Carlo simulation on a fanout-free (tree) circuit, where the
// independence assumption is exact.
func TestMonteCarloAgreementTree(t *testing.T) {
	c := circuit.New("tree")
	var leaves []int
	for i := 0; i < 8; i++ {
		leaves = append(leaves, c.AddInput(""))
	}
	l1a := c.AddGate(circuit.Nand, "", leaves[0], leaves[1])
	l1b := c.AddGate(circuit.Or, "", leaves[2], leaves[3])
	l1c := c.AddGate(circuit.Xor, "", leaves[4], leaves[5])
	l1d := c.AddGate(circuit.Nor, "", leaves[6], leaves[7])
	l2a := c.AddGate(circuit.And, "", l1a, l1b)
	l2b := c.AddGate(circuit.Xnor, "", l1c, l1d)
	root := c.AddGate(circuit.Nand, "", l2a, l2b)
	c.AddOutput(root, "")

	rng := rand.New(rand.NewSource(42))
	const eps = 0.05
	const trials = 60000
	for rep := 0; rep < 3; rep++ {
		x := c.RandomInputs(rng)
		ref := c.Eval(x, nil, nil)[0]
		wrong := 0
		for i := 0; i < trials; i++ {
			if c.EvalNoisy(x, nil, eps, rng, nil)[0] != ref {
				wrong++
			}
		}
		mc := float64(wrong) / trials
		e, err := NewEstimator(c).OutputBERsInto(nil, x, nil, eps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e[0]-mc) > 0.01 {
			t.Errorf("x=%v: analytic %.4f vs MC %.4f", x, e[0], mc)
		}
	}
}

// TestMonteCarloRoughAgreementDAG checks the estimate stays in the
// right ballpark on circuits WITH reconvergent fanout (the paper's
// "rough" regime): we only require the same order of magnitude.
func TestMonteCarloRoughAgreementDAG(t *testing.T) {
	c := gen.Random("dag", 10, 80, 6, 3)
	rng := rand.New(rand.NewSource(9))
	const eps = 0.02
	const trials = 20000
	x := c.RandomInputs(rng)
	ref := c.Eval(x, nil, nil)
	wrong := make([]int, c.NumPOs())
	for i := 0; i < trials; i++ {
		y := c.EvalNoisy(x, nil, eps, rng, nil)
		for j := range y {
			if y[j] != ref[j] {
				wrong[j]++
			}
		}
	}
	e, err := NewEstimator(c).OutputBERsInto(nil, x, nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	for j := range e {
		mc := float64(wrong[j]) / trials
		// Correlation effects can bias the analytic value; demand
		// agreement within an absolute 0.1 or factor of 3.
		if math.Abs(e[j]-mc) > 0.1 && (e[j] > 3*mc+0.01 || mc > 3*e[j]+0.01) {
			t.Errorf("output %d: analytic %.4f vs MC %.4f too far apart", j, e[j], mc)
		}
	}
}

func TestBERsMonotoneInDepthOnChain(t *testing.T) {
	// Deeper buffer chains accumulate error monotonically (below 0.5).
	prev := 0.0
	for depth := 1; depth <= 10; depth++ {
		c := circuit.New("chain")
		w := c.AddInput("a")
		for i := 0; i < depth; i++ {
			w = c.AddGate(circuit.Buf, "", w)
		}
		c.AddOutput(w, "")
		e, err := NewEstimator(c).OutputBERsInto(nil, []bool{true}, nil, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if e[0] <= prev {
			t.Errorf("depth %d: BER %.5f not increasing (prev %.5f)", depth, e[0], prev)
		}
		if e[0] > 0.5 {
			t.Errorf("depth %d: BER %.5f exceeded 0.5 asymptote", depth, e[0])
		}
		prev = e[0]
	}
}

func TestProbabilitiesWithinUnitInterval(t *testing.T) {
	c := gen.Random("r", 12, 300, 10, 17)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		x := c.RandomInputs(rng)
		p, err := NewEstimator(c).WireErrorProbs(x, nil, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("wire %d error prob %v out of range", id, v)
			}
		}
	}
}

func TestAverageOutputBERs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := gen.Random("avg", 8, 60, 4, 21)
	// Fake "locked" circuit: reuse the same netlist with zero keys; the
	// average over identical keys must equal a single estimate.
	x := orig.RandomInputs(rng)
	single, err := NewEstimator(orig).OutputBERsInto(nil, x, nil, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := NewEstimator(orig).AverageOutputBERs(x, [][]bool{nil, nil, nil}, 0.03, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range single {
		if math.Abs(single[i]-avg[i]) > 1e-12 {
			t.Errorf("output %d: avg %v vs single %v", i, avg[i], single[i])
		}
	}
	if _, err := NewEstimator(orig).AverageOutputBERs(x, nil, 0.03, nil); err == nil {
		t.Error("want error for empty key set")
	}
}

// referenceWireErrorProbs is the estimator without its schedule
// tricks: EvalWires for the deterministic values, then one pass over
// the circuit's own topological order.
func referenceWireErrorProbs(c *circuit.Circuit, x, k []bool, eps float64) []float64 {
	vals := c.EvalWires(x, k, nil)
	p := make([]float64, c.NumGates())
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type.IsInputType() {
			continue
		}
		n := len(g.Fanin)
		in := make([]bool, n)
		q := 0.0
		for mask := 0; mask < 1<<uint(n); mask++ {
			prob := 1.0
			for i, f := range g.Fanin {
				if mask>>uint(i)&1 == 1 {
					prob *= p[f]
					in[i] = !vals[f]
				} else {
					prob *= 1 - p[f]
					in[i] = vals[f]
				}
			}
			if prob == 0 { // the estimator's exact-zero skip
				continue
			}
			if g.Type.Eval(in) != vals[id] {
				q += prob
			}
		}
		p[id] = q*(1-eps) + (1-q)*eps
	}
	return p
}

// TestKeyIndependentConeBitIdentical pins the per-DIP reuse of the
// key-independent cone: on locked circuits, WireErrorProbs matches the
// plain reference and AverageOutputBERs matches the mean of per-key
// WireErrorProbs, bit for bit.
func TestKeyIndependentConeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bm, _ := gen.ByName("c880")
	orig := bm.BuildScaled(8)
	locks := map[string]func() (*lock.Locked, error){
		"rll":     func() (*lock.Locked, error) { return lock.RLL(orig, 12, rng) },
		"antisat": func() (*lock.Locked, error) { return lock.AntiSAT(orig, 10, rng) },
		"sfll":    func() (*lock.Locked, error) { return lock.SFLLHD(orig, 6, 0, rng) },
	}
	for _, name := range []string{"rll", "antisat", "sfll"} {
		l, err := locks[name]()
		if err != nil {
			t.Fatal(err)
		}
		c := l.Circuit
		est := NewEstimator(c)
		if est.nIndep == 0 || est.nIndep == len(est.ops) {
			t.Fatalf("%s: %d of %d ops key-independent, want a proper split", name, est.nIndep, len(est.ops))
		}
		for trial := 0; trial < 3; trial++ {
			x := c.RandomInputs(rng)
			keys := make([][]bool, 5)
			for i := range keys {
				keys[i] = make([]bool, c.NumKeys())
				for j := range keys[i] {
					keys[i][j] = rng.Intn(2) == 1
				}
			}
			const eps = 0.02
			want := make([]float64, c.NumPOs())
			for _, k := range keys {
				got, err := est.WireErrorProbs(x, k, eps)
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceWireErrorProbs(c, x, k, eps)
				for id := range ref {
					if math.Float64bits(got[id]) != math.Float64bits(ref[id]) {
						t.Fatalf("%s: wire %d: %v, reference %v", name, id, got[id], ref[id])
					}
				}
				for i, po := range c.POs {
					want[i] += got[po]
				}
			}
			for i := range want {
				want[i] /= float64(len(keys))
			}
			avg, err := est.AverageOutputBERs(x, keys, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(avg[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: output %d: average %v, per-key mean %v", name, i, avg[i], want[i])
				}
			}
		}
	}
}

// TestAverageOutputBERsHandsBackOutputs: the deterministic outputs
// AverageOutputBERs hands back are Circuit.Eval's, key by key, and
// handing them back leaves the estimate unchanged.
func TestAverageOutputBERsHandsBackOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bm, _ := gen.ByName("c880")
	l, err := lock.SLL(bm.BuildScaled(8), 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := l.Circuit
	est := NewEstimator(c)
	npo := c.NumPOs()
	for trial := 0; trial < 4; trial++ {
		x := c.RandomInputs(rng)
		keys := make([][]bool, 6)
		for i := range keys {
			keys[i] = c.RandomKey(rng)
		}
		outs := make([]bool, len(keys)*npo)
		got, err := est.AverageOutputBERs(x, keys, 0.02, outs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := est.AverageOutputBERs(x, keys, 0.02, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("output %d: estimate %v with outputs handed back, %v without", i, got[i], want[i])
			}
		}
		for ki, k := range keys {
			ref := c.Eval(x, k, nil)
			for j := range ref {
				if outs[ki*npo+j] != ref[j] {
					t.Fatalf("trial %d key %d output %d: handed back %v, Eval %v", trial, ki, j, outs[ki*npo+j], ref[j])
				}
			}
		}
	}
}

func TestFaninLimit(t *testing.T) {
	c := circuit.New("wide")
	var ins []int
	for i := 0; i < MaxEnumFanin+1; i++ {
		ins = append(ins, c.AddInput(""))
	}
	g := c.AddGate(circuit.And, "g", ins...)
	c.AddOutput(g, "")
	x := make([]bool, MaxEnumFanin+1)
	if _, err := NewEstimator(c).OutputBERsInto(nil, x, nil, 0.1); err == nil {
		t.Error("want error for fanin beyond enumeration limit")
	}
}

func TestHighBEROutputsExist(t *testing.T) {
	// §IV-A/IV-C: outputs can have BER > 0.5 (e.g. an inverter chain
	// where the deterministic value is re-inverted by dominant error
	// paths is hard to build; instead: NOT driven by a wire that is
	// almost always wrong). A 30-deep chain at eps=0.2 approaches 0.5
	// but never exceeds it under independence; BER > 0.5 arises with
	// correlations in real circuits. Here we simply check the deep
	// chain approaches 0.5.
	c := circuit.New("deep")
	w := c.AddInput("a")
	for i := 0; i < 30; i++ {
		w = c.AddGate(circuit.Not, "", w)
	}
	c.AddOutput(w, "")
	e, err := NewEstimator(c).OutputBERsInto(nil, []bool{false}, nil, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if e[0] < 0.45 || e[0] > 0.5 {
		t.Errorf("deep chain BER %v, want ≈0.5", e[0])
	}
}

func BenchmarkOutputBERsScale8(b *testing.B) {
	bm, _ := gen.ByName("c3540")
	c := bm.BuildScaled(8)
	rng := rand.New(rand.NewSource(1))
	x := c.RandomInputs(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEstimator(c).OutputBERsInto(nil, x, nil, 0.0125); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireErrorProbs measures a one-off estimate, which pays a
// fresh Estimator (and its scratch) per call.
func BenchmarkWireErrorProbs(b *testing.B) {
	bm, _ := gen.ByName("c3540")
	c := bm.BuildScaled(8)
	rng := rand.New(rand.NewSource(1))
	x := c.RandomInputs(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEstimator(c).WireErrorProbs(x, nil, 0.0125); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireErrorProbsEstimator is the reusable-buffer path the
// attack hot loop uses: one Estimator, zero per-call allocations.
func BenchmarkWireErrorProbsEstimator(b *testing.B) {
	bm, _ := gen.ByName("c3540")
	c := bm.BuildScaled(8)
	rng := rand.New(rand.NewSource(1))
	x := c.RandomInputs(rng)
	est := NewEstimator(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.WireErrorProbs(x, nil, 0.0125); err != nil {
			b.Fatal(err)
		}
	}
}
