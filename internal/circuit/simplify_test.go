package circuit

import (
	"math/rand"
	"testing"
)

// exhaustiveBits is the widest PI-plus-key count equivalentOnSamples
// checks in full: 2^16 assignments cost well under a second.
const exhaustiveBits = 16

// equivalentOnSamples cross-checks two circuits with identical
// interfaces: on every PI and key assignment when they have at most
// exhaustiveBits such bits, otherwise on samples random vectors.
func equivalentOnSamples(t *testing.T, a, b *Circuit, samples int, seed int64) {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumKeys() != b.NumKeys() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface mismatch: %d/%d PIs, %d/%d keys, %d/%d POs",
			a.NumPIs(), b.NumPIs(), a.NumKeys(), b.NumKeys(), a.NumPOs(), b.NumPOs())
	}
	same := func(pi, key []bool) {
		t.Helper()
		x := a.Eval(pi, key, nil)
		y := b.Eval(pi, key, nil)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("output %d differs for pi=%v key=%v", i, pi, key)
			}
		}
	}
	pi, key := make([]bool, a.NumPIs()), make([]bool, a.NumKeys())
	if n := len(pi) + len(key); n <= exhaustiveBits {
		for v := 0; v < 1<<n; v++ {
			for i := range pi {
				pi[i] = v>>i&1 == 1
			}
			for i := range key {
				key[i] = v>>(len(pi)+i)&1 == 1
			}
			same(pi, key)
		}
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < samples; s++ {
		same(a.RandomInputs(rng), a.RandomKey(rng))
	}
}

func TestSimplifyPreservesC17(t *testing.T) {
	c := buildC17(t)
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 32, 1)
	// c17 is already minimal; gate count must not grow.
	if s.NumLogicGates() > c.NumLogicGates() {
		t.Errorf("simplify grew c17: %d -> %d", c.NumLogicGates(), s.NumLogicGates())
	}
}

func TestSimplifyConstantFolding(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	one := c.AddGate(Const1, "one")
	zero := c.AddGate(Const0, "zero")
	g1 := c.AddGate(And, "g1", a, one)  // = a
	g2 := c.AddGate(Or, "g2", g1, zero) // = a
	g3 := c.AddGate(Xor, "g3", g2, one) // = ¬a
	c.AddOutput(g3, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 2)
	if s.NumLogicGates() != 1 {
		t.Errorf("expected a single NOT gate, got %d gates", s.NumLogicGates())
	}
}

func TestSimplifyAbsorbingConstants(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	zero := c.AddGate(Const0, "z")
	one := c.AddGate(Const1, "o")
	g1 := c.AddGate(And, "g1", a, zero) // = 0
	g2 := c.AddGate(Nor, "g2", a, one)  // = 0
	g3 := c.AddGate(Or, "g3", g1, g2)   // = 0
	c.AddOutput(g3, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 3)
	// Everything folds to a constant-0 output; constants are source
	// gates, so no logic gates remain.
	if s.NumLogicGates() != 0 {
		t.Errorf("got %d logic gates, want 0", s.NumLogicGates())
	}
	if out := s.Eval([]bool{true}, nil, nil); out[0] {
		t.Error("folded output should be constant 0")
	}
}

func TestSimplifyXorCancellation(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(Xor, "g1", a, b)
	g2 := c.AddGate(Xor, "g2", g1, b) // = a
	c.AddOutput(g2, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 4)
	// XOR flattening splices the inner gate, so XOR(XOR(a,b),b)
	// becomes XOR(a,b,b) and the pair cancels: the output is just a.
	if s.NumLogicGates() != 0 {
		t.Errorf("XOR(XOR(a,b),b) should fold to a, got %d gates", s.NumLogicGates())
	}
}

func TestSimplifyDuplicateFanin(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	g1 := c.AddGate(And, "g1", a, a) // = a
	g2 := c.AddGate(Xor, "g2", a, a) // = 0
	g3 := c.AddGate(Or, "g3", g1, g2)
	c.AddOutput(g3, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 5)
	if s.NumLogicGates() != 0 {
		t.Errorf("AND(a,a) ∨ XOR(a,a) should fold to just a, got %d gates", s.NumLogicGates())
	}
}

func TestSimplifyMux(t *testing.T) {
	c := New("k")
	s0 := c.AddInput("s")
	a := c.AddInput("a")
	b := c.AddInput("b")
	one := c.AddGate(Const1, "one")
	zero := c.AddGate(Const0, "zero")
	m1 := c.AddGate(Mux, "m1", zero, a, b)    // = a
	m2 := c.AddGate(Mux, "m2", s0, one, b)    // = ¬s ∨ ... = (¬s) + (s∧b)
	m3 := c.AddGate(Mux, "m3", s0, a, a)      // = a
	m4 := c.AddGate(Mux, "m4", s0, zero, one) // = s
	g := c.AddGate(Xor, "g", m1, m2)
	g2 := c.AddGate(Xor, "g2", m3, m4)
	g3 := c.AddGate(Xor, "g3", g, g2)
	c.AddOutput(g3, "y")
	simp, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, simp, 8, 6)
}

func TestSimplifyCSE(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(And, "g1", a, b)
	g2 := c.AddGate(And, "g2", b, a) // same function, swapped fanin
	g3 := c.AddGate(Xor, "g3", g1, g2)
	c.AddOutput(g3, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 7)
	// g1 and g2 merge; XOR(x,x) folds to 0.
	if s.NumLogicGates() > 1 {
		t.Errorf("CSE missed the commuted AND pair: %d gates", s.NumLogicGates())
	}
}

func TestSimplifyDeadGateSweep(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(And, "live", a, b)
	c.AddGate(Or, "dead1", a, b)
	c.AddGate(Xor, "dead2", a, b)
	c.AddOutput(g1, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLogicGates() != 1 {
		t.Errorf("dead gates survived: %d", s.NumLogicGates())
	}
}

func TestSimplifyPreservesInterface(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	c.AddInput("unused_b")
	k := c.AddKey("keyinput0")
	c.AddKey("unused_key")
	g := c.AddGate(Xor, "g", a, k)
	c.AddOutput(g, "y")
	c.AddOutput(a, "passthru")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPIs() != 2 || s.NumKeys() != 2 || s.NumPOs() != 2 {
		t.Fatalf("interface changed: %d PIs %d keys %d POs", s.NumPIs(), s.NumKeys(), s.NumPOs())
	}
	if s.OutputName(0) != "y" || s.OutputName(1) != "passthru" {
		t.Errorf("output names lost: %q %q", s.OutputName(0), s.OutputName(1))
	}
	equivalentOnSamples(t, c, s, 16, 8)
}

func TestSimplifyConstantOutput(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	na := c.AddGate(Not, "na", a)
	g := c.AddGate(And, "g", a, na) // = 0
	c.AddOutput(g, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 9)
	// Complement-pair detection resolves AND(a, ¬a) to constant 0.
	if s.NumLogicGates() != 0 {
		t.Errorf("AND(a, ¬a) should fold to constant 0, got %d gates", s.NumLogicGates())
	}
	if out := s.Eval([]bool{true}, nil, nil); out[0] {
		t.Error("folded output should be constant 0")
	}
}

func TestSimplifyRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := randomCircuit(seed, 10, 120, 8)
		s, err := Simplify(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		equivalentOnSamples(t, c, s, 60, seed+100)
		if s.NumLogicGates() > c.NumLogicGates() {
			t.Errorf("seed %d: simplify grew the netlist %d -> %d",
				seed, c.NumLogicGates(), s.NumLogicGates())
		}
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	c := randomCircuit(5, 10, 150, 8)
	s1, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Simplify(s1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumLogicGates() > s1.NumLogicGates() {
		t.Errorf("second pass grew the netlist: %d -> %d", s1.NumLogicGates(), s2.NumLogicGates())
	}
	equivalentOnSamples(t, s1, s2, 40, 11)
}

// TestSimplifyXorCancelThroughNotChain is the regression test for the
// pairwise-cancellation gap: XOR(NOT(NOT(x)), x) used to survive as a
// NOT chain plus an XOR because cancellation only compared raw gate
// ids. Double-negation elimination now exposes the duplicate fanin.
func TestSimplifyXorCancelThroughNotChain(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	n1 := c.AddGate(Not, "n1", a)
	n2 := c.AddGate(Not, "n2", n1)
	g := c.AddGate(Xor, "g", n2, a)
	c.AddOutput(g, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 21)
	if s.NumLogicGates() != 0 {
		t.Errorf("XOR(¬¬a, a) should fold to constant 0, got %d gates", s.NumLogicGates())
	}
	if out := s.Eval([]bool{true}, nil, nil); out[0] {
		t.Error("folded output should be constant 0")
	}
}

// TestSimplifyXorCancelAfterCSE checks cancellation fires on fanins
// that only become duplicates once CSE merges them (commuted AND).
func TestSimplifyXorCancelAfterCSE(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g1 := c.AddGate(And, "g1", a, b)
	g2 := c.AddGate(And, "g2", b, a)
	g := c.AddGate(Xor, "g", g1, g2)
	c.AddOutput(g, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 22)
	if s.NumLogicGates() != 0 {
		t.Errorf("XOR of commuted ANDs should fold to constant 0, got %d gates", s.NumLogicGates())
	}
}

// TestSimplifyComplementAfterDeMorgan: NOR(¬a,¬b) normalises to
// AND(a,b), which the strash table then recognises as the complement
// of NAND(a,b), so their XOR is constant 1.
func TestSimplifyComplementAfterDeMorgan(t *testing.T) {
	c := New("k")
	a := c.AddInput("a")
	b := c.AddInput("b")
	nd := c.AddGate(Nand, "nd", a, b)
	na := c.AddGate(Not, "na", a)
	nb := c.AddGate(Not, "nb", b)
	nr := c.AddGate(Nor, "nr", na, nb)
	g := c.AddGate(Xor, "g", nd, nr)
	c.AddOutput(g, "y")
	s, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, s, 4, 23)
	if s.NumLogicGates() != 0 {
		t.Errorf("XOR(NAND(a,b), NOR(¬a,¬b)) should fold to constant 1, got %d gates",
			s.NumLogicGates())
	}
	if out := s.Eval([]bool{false, true}, nil, nil); !out[0] {
		t.Error("folded output should be constant 1")
	}
}

// TestSimplifyMuxComplementArms: a MUX whose arms are complements is
// a disguised parity gate.
func TestSimplifyMuxComplementArms(t *testing.T) {
	c := New("k")
	s0 := c.AddInput("s")
	a := c.AddInput("a")
	na := c.AddGate(Not, "na", a)
	m := c.AddGate(Mux, "m", s0, a, na) // = s ⊕ a
	c.AddOutput(m, "y")
	simp, err := Simplify(c)
	if err != nil {
		t.Fatal(err)
	}
	equivalentOnSamples(t, c, simp, 8, 24)
	if simp.NumLogicGates() != 1 {
		t.Errorf("mux(s,a,¬a) should fold to a single XOR, got %d gates", simp.NumLogicGates())
	}
}

// TestSimplifyEquivalence2k is the randomized large-circuit harness:
// 2k-gate netlists must stay functionally equivalent (and never grow)
// through the full strash + rewrite + sweep pipeline.
func TestSimplifyEquivalence2k(t *testing.T) {
	seeds := []int64{41, 42, 43, 44, 45}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		c := randomCircuit(seed, 24, 2000, 16)
		s, err := Simplify(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		equivalentOnSamples(t, c, s, 48, seed+300)
		if s.NumLogicGates() > c.NumLogicGates() {
			t.Errorf("seed %d: simplify grew the netlist %d -> %d",
				seed, c.NumLogicGates(), s.NumLogicGates())
		}
	}
}

func TestPruneKeepsInterface(t *testing.T) {
	c := New("p")
	c.AddInput("a")
	b := c.AddInput("b")
	c.AddGate(Not, "dead", b)
	g := c.AddGate(Buf, "live", b)
	c.AddOutput(g, "y")
	p := Prune(c)
	if p.NumPIs() != 2 || p.NumPOs() != 1 {
		t.Fatalf("interface changed")
	}
	if p.NumLogicGates() != 1 {
		t.Errorf("dead gate survived prune: %d", p.NumLogicGates())
	}
}

func BenchmarkSimplifyRandom2k(b *testing.B) {
	c := randomCircuit(1, 50, 2000, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simplify(c); err != nil {
			b.Fatal(err)
		}
	}
}
