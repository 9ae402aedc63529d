package cnf

import (
	"context"
	"math/rand"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
	"statsat/internal/lock"
	"statsat/internal/sat"
)

// randomCircuit builds a random valid circuit for property tests.
func randomCircuit(seed int64, nIn, nKey, nGates, nOut int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("rc")
	for i := 0; i < nIn; i++ {
		c.AddInput("")
	}
	for i := 0; i < nKey; i++ {
		c.AddKey("")
	}
	types := []circuit.GateType{
		circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf, circuit.Mux,
	}
	for i := 0; i < nGates; i++ {
		ty := types[rng.Intn(len(types))]
		n := len(c.Gates)
		switch ty {
		case circuit.Not, circuit.Buf:
			c.AddGate(ty, "", rng.Intn(n))
		case circuit.Mux:
			c.AddGate(ty, "", rng.Intn(n), rng.Intn(n), rng.Intn(n))
		default:
			c.AddGate(ty, "", rng.Intn(n), rng.Intn(n))
		}
	}
	for i := 0; i < nOut; i++ {
		c.AddOutput(nIn+nKey+rng.Intn(nGates), "")
	}
	return c
}

// solveWithInputs fixes the copy's free PI/key literals to the given
// values and returns the modelled outputs.
func solveWithInputs(t *testing.T, s *sat.Solver, cp *Copy, pi, key []bool) []bool {
	t.Helper()
	var assumps []sat.Lit
	for i, w := range cp.PIs {
		if w.Const {
			if w.Val != pi[i] {
				t.Fatalf("PI %d folded to constant %v, cannot assume %v", i, w.Val, pi[i])
			}
			continue
		}
		assumps = append(assumps, mkAssump(w.Lit, pi[i]))
	}
	for i, w := range cp.Keys {
		if w.Const {
			continue
		}
		assumps = append(assumps, mkAssump(w.Lit, key[i]))
	}
	if got := s.Solve(assumps...); got != sat.Sat {
		t.Fatalf("copy unsat under input assignment: %v", got)
	}
	outs := make([]bool, len(cp.Outs))
	for i, w := range cp.Outs {
		if w.Const {
			outs[i] = w.Val
		} else {
			outs[i] = s.ModelLit(w.Lit)
		}
	}
	return outs
}

func mkAssump(l sat.Lit, val bool) sat.Lit {
	if val {
		return l
	}
	return l.Not()
}

// TestEncodeMatchesSimulation is the central consistency property:
// for random circuits and random input/key vectors, the CNF encoding
// evaluates exactly like the simulator.
func TestEncodeMatchesSimulation(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		c := randomCircuit(seed, 6, 3, 40, 5)
		s := sat.New()
		cp, err := Encode(s, c, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed + 1000))
		for trial := 0; trial < 20; trial++ {
			pi := c.RandomInputs(rng)
			key := c.RandomKey(rng)
			want := c.Eval(pi, key, nil)
			got := solveWithInputs(t, s, cp, pi, key)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d trial %d: output %d = %v, want %v", seed, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEncodeFixedPIsMatchesSimulation checks the constant-folding path.
func TestEncodeFixedPIsMatchesSimulation(t *testing.T) {
	for seed := int64(20); seed < 30; seed++ {
		c := randomCircuit(seed, 6, 3, 40, 5)
		rng := rand.New(rand.NewSource(seed))
		pi := c.RandomInputs(rng)
		s := sat.New()
		cp, err := Encode(s, c, Options{FixedPIs: pi})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			key := c.RandomKey(rng)
			want := c.Eval(pi, key, nil)
			got := solveWithInputs(t, s, cp, pi, key)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: fixed-PI output %d mismatch", seed, i)
				}
			}
		}
	}
}

func TestEncodeFixedKeys(t *testing.T) {
	c := randomCircuit(3, 5, 4, 30, 4)
	rng := rand.New(rand.NewSource(5))
	key := c.RandomKey(rng)
	s := sat.New()
	cp, err := Encode(s, c, Options{FixedKeys: key})
	if err != nil {
		t.Fatal(err)
	}
	pi := c.RandomInputs(rng)
	want := c.Eval(pi, key, nil)
	got := solveWithInputs(t, s, cp, pi, key)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fixed-key output %d mismatch", i)
		}
	}
}

func TestEncodeOptionValidation(t *testing.T) {
	c := randomCircuit(1, 4, 2, 10, 2)
	s := sat.New()
	if _, err := Encode(s, c, Options{FixedPIs: []bool{true}}); err == nil {
		t.Error("want error for short FixedPIs")
	}
	if _, err := Encode(s, c, Options{PILits: []sat.Lit{0}}); err == nil {
		t.Error("want error for short PILits")
	}
	if _, err := Encode(s, c, Options{KeyLits: []sat.Lit{0}}); err == nil {
		t.Error("want error for short KeyLits")
	}
	if _, err := Encode(s, c, Options{FixedKeys: []bool{true}}); err == nil {
		t.Error("want error for short FixedKeys")
	}
}

func TestWireNot(t *testing.T) {
	if ConstWire(true).Not().Val {
		t.Error("¬1 should be 0")
	}
	s := sat.New()
	l := FreshLit(s)
	if LitWire(l).Not().Lit != l.Not() {
		t.Error("literal negation broken")
	}
}

func TestAndFolding(t *testing.T) {
	s := sat.New()
	a := LitWire(FreshLit(s))
	if w := And(s, a, ConstWire(false)); !w.Const || w.Val {
		t.Error("x ∧ 0 should fold to 0")
	}
	if w := And(s, a, ConstWire(true)); w.Const || w.Lit != a.Lit {
		t.Error("x ∧ 1 should fold to x")
	}
	if w := And(s); !w.Const || !w.Val {
		t.Error("empty conjunction is 1")
	}
}

func TestOrFolding(t *testing.T) {
	s := sat.New()
	a := LitWire(FreshLit(s))
	if w := Or(s, a, ConstWire(true)); !w.Const || !w.Val {
		t.Error("x ∨ 1 should fold to 1")
	}
	if w := Or(s, a, ConstWire(false)); w.Const || w.Lit != a.Lit {
		t.Error("x ∨ 0 should fold to x")
	}
}

func TestXorFolding(t *testing.T) {
	s := sat.New()
	a := LitWire(FreshLit(s))
	if w := Xor2(s, a, a); !w.Const || w.Val {
		t.Error("x ⊕ x = 0")
	}
	if w := Xor2(s, a, a.Not()); !w.Const || !w.Val {
		t.Error("x ⊕ ¬x = 1")
	}
	if w := Xor2(s, a, ConstWire(true)); w.Const || w.Lit != a.Lit.Not() {
		t.Error("x ⊕ 1 = ¬x")
	}
}

func TestMuxFolding(t *testing.T) {
	s := sat.New()
	a := LitWire(FreshLit(s))
	b := LitWire(FreshLit(s))
	if w := Mux(s, ConstWire(false), a, b); w.Lit != a.Lit {
		t.Error("mux(0,a,b) = a")
	}
	if w := Mux(s, ConstWire(true), a, b); w.Lit != b.Lit {
		t.Error("mux(1,a,b) = b")
	}
	sel := LitWire(FreshLit(s))
	if w := Mux(s, sel, ConstWire(false), ConstWire(true)); w.Lit != sel.Lit {
		t.Error("mux(s,0,1) = s")
	}
	if w := Mux(s, sel, ConstWire(true), ConstWire(false)); w.Lit != sel.Lit.Not() {
		t.Error("mux(s,1,0) = ¬s")
	}
	if w := Mux(s, sel, a, a); w.Lit != a.Lit {
		t.Error("mux(s,a,a) = a")
	}
}

func TestEqualOnConstants(t *testing.T) {
	s := sat.New()
	if !Equal(s, ConstWire(true), true) {
		t.Error("1 == 1 should succeed")
	}
	if Equal(s, ConstWire(true), false) {
		t.Error("1 == 0 should fail")
	}
	if s.Okay() {
		t.Error("solver must be poisoned by contradictory Equal")
	}
}

func TestNotEqualAnyAllConstEqual(t *testing.T) {
	s := sat.New()
	a := []Wire{ConstWire(true), ConstWire(false)}
	if NotEqualAny(s, a, a) {
		t.Error("identical constant vectors can never differ")
	}
	if s.Okay() {
		t.Error("solver should be inconsistent")
	}
}

func TestNotEqualAnyStructuralDiff(t *testing.T) {
	s := sat.New()
	a := []Wire{ConstWire(true)}
	b := []Wire{ConstWire(false)}
	if !NotEqualAny(s, a, b) {
		t.Error("constant difference should trivially satisfy")
	}
	if !s.Okay() {
		t.Error("solver should stay consistent")
	}
}

// xorLock builds a tiny XOR-locked circuit whose correct key is known.
func xorLock(t *testing.T) (*circuit.Circuit, []bool) {
	t.Helper()
	c := circuit.New("tiny")
	a := c.AddInput("a")
	b := c.AddInput("b")
	k0 := c.AddKey("keyinput0")
	k1 := c.AddKey("keyinput1")
	g1 := c.AddGate(circuit.And, "g1", a, b)
	g2 := c.AddGate(circuit.Xor, "g2", g1, k0) // correct k0 = 0
	g3 := c.AddGate(circuit.Xnor, "g3", g2, k1)
	g4 := c.AddGate(circuit.Not, "g4", g3) // correct k1 = 1 makes g4 = and(a,b)... verify below
	c.AddOutput(g4, "y")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Find the key that makes c equivalent to AND(a,b) by brute force.
	for kbits := 0; kbits < 4; kbits++ {
		key := []bool{kbits&1 == 1, kbits&2 == 2}
		ok := true
		for m := 0; m < 4; m++ {
			pi := []bool{m&1 == 1, m&2 == 2}
			if c.Eval(pi, key, nil)[0] != (pi[0] && pi[1]) {
				ok = false
				break
			}
		}
		if ok {
			return c, key
		}
	}
	t.Fatal("no correct key exists for the test circuit")
	return nil, nil
}

func TestMiterFindsDistinguishingInput(t *testing.T) {
	c, correct := xorLock(t)
	m, err := NewMiter(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.S.Solve() != sat.Sat {
		t.Fatal("fresh miter must be satisfiable (wrong keys exist)")
	}
	x := m.Input()
	ka, kb := m.KeyAModel(), m.KeyBModel()
	outA := c.Eval(x, ka, nil)
	outB := c.Eval(x, kb, nil)
	same := true
	for i := range outA {
		if outA[i] != outB[i] {
			same = false
		}
	}
	if same {
		t.Errorf("DI %v does not distinguish keys %v and %v", x, ka, kb)
	}
	_ = correct
}

func TestMiterFullAttackLoop(t *testing.T) {
	// Run the complete classic SAT attack on the tiny locked circuit.
	c, correct := xorLock(t)
	m, err := NewMiter(c)
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeySolver(m.C)
	for iter := 0; iter < 20; iter++ {
		if m.S.Solve() != sat.Sat {
			// No more DIs: extract key.
			if ks.S.Solve() != sat.Sat {
				t.Fatal("key solver unsat at convergence")
			}
			key := ks.Key()
			for mInt := 0; mInt < 4; mInt++ {
				pi := []bool{mInt&1 == 1, mInt&2 == 2}
				if c.Eval(pi, key, nil)[0] != c.Eval(pi, correct, nil)[0] {
					t.Fatalf("recovered key %v not equivalent to %v", key, correct)
				}
			}
			return
		}
		x := m.Input()
		y := c.Eval(x, correct, nil) // oracle
		outA, outB, err := m.AddDIPCopies(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			Equal(m.S, outA[i], y[i])
			Equal(m.S, outB[i], y[i])
		}
		outs, err := ks.AddDIPCopy(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			Equal(ks.S, outs[i], y[i])
		}
	}
	t.Fatal("attack did not converge in 20 iterations")
}

func TestKeySolverEnumerateKeys(t *testing.T) {
	c, _ := xorLock(t)
	ks := NewKeySolver(c)
	keys := ks.EnumerateKeys(context.Background(), 10, nil)
	if len(keys) != 4 {
		t.Fatalf("unconstrained 2-bit keyspace: got %d keys, want 4", len(keys))
	}
	seen := map[[2]bool]bool{}
	for _, k := range keys {
		kk := [2]bool{k[0], k[1]}
		if seen[kk] {
			t.Fatalf("duplicate key %v enumerated", k)
		}
		seen[kk] = true
	}
	// Enumeration must not poison future solving.
	if ks.S.Solve() != sat.Sat {
		t.Error("key solver unusable after enumeration")
	}
	// Second enumeration still sees all keys (blocking clauses retired).
	if again := ks.EnumerateKeys(context.Background(), 10, nil); len(again) != 4 {
		t.Errorf("second enumeration found %d keys, want 4", len(again))
	}
}

// TestKeySolverEnumerateSkipsKnown: keys passed as known never come
// back, and they stay blocked only for that call.
func TestKeySolverEnumerateSkipsKnown(t *testing.T) {
	c, _ := xorLock(t)
	ks := NewKeySolver(c)
	known := [][]bool{{false, true}, {true, true}}
	keys := ks.EnumerateKeys(context.Background(), 10, known)
	if len(keys) != 2 {
		t.Fatalf("2-bit keyspace minus 2 known keys: got %d keys, want 2", len(keys))
	}
	for _, k := range keys {
		if k[1] {
			t.Errorf("known key %v enumerated again", k)
		}
	}
	if again := ks.EnumerateKeys(context.Background(), 10, nil); len(again) != 4 {
		t.Errorf("enumeration after a known-key call found %d keys, want 4", len(again))
	}
	if keys := ks.EnumerateKeys(context.Background(), 10, [][]bool{{false, false}, {true, false}, {false, true}, {true, true}}); len(keys) != 0 {
		t.Errorf("every key known: got %v, want none", keys)
	}
}

func TestKeySolverEnumerateZero(t *testing.T) {
	c, _ := xorLock(t)
	ks := NewKeySolver(c)
	if keys := ks.EnumerateKeys(context.Background(), 0, nil); keys != nil {
		t.Error("max=0 should return nil")
	}
}

func TestMiterCloneIndependence(t *testing.T) {
	c, correct := xorLock(t)
	m, err := NewMiter(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.S.Solve() != sat.Sat {
		t.Fatal("miter should be sat")
	}
	x := m.Input()
	y := c.Eval(x, correct, nil)
	m2 := m.Clone()
	// Constrain only the original.
	outA, outB, _ := m.AddDIPCopies(x)
	for i := range y {
		Equal(m.S, outA[i], y[i])
		Equal(m.S, outB[i], y[i])
	}
	if m2.S.NumClauses() == m.S.NumClauses() {
		t.Error("clone should not see the original's new clauses")
	}
	if m2.S.Solve() != sat.Sat {
		t.Error("clone must still be satisfiable")
	}
}

func TestEncodeConstGateTypes(t *testing.T) {
	c := circuit.New("k")
	z := c.AddGate(circuit.Const0, "z")
	o := c.AddGate(circuit.Const1, "o")
	y := c.AddGate(circuit.Nand, "y", z, o)
	c.AddOutput(y, "")
	s := sat.New()
	cp, err := Encode(s, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Outs[0].Const || !cp.Outs[0].Val {
		t.Errorf("NAND(0,1) should fold to constant 1, got %+v", cp.Outs[0])
	}
}

func BenchmarkEncodeRandom500(b *testing.B) {
	c := randomCircuit(1, 30, 16, 500, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sat.New()
		if _, err := Encode(s, c, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMiterBuild500(b *testing.B) {
	c := randomCircuit(1, 30, 16, 500, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMiter(c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeShareCacheSoundness: two copies over shared PI literals
// and a shared cone cache must each still evaluate exactly like the
// simulator under independent keys — sharing may only merge gates
// that genuinely compute the same function.
func TestEncodeShareCacheSoundness(t *testing.T) {
	for seed := int64(50); seed < 60; seed++ {
		c := randomCircuit(seed, 6, 3, 60, 5)
		s := sat.New()
		pis := FreshLits(s, c.NumPIs())
		keyA := FreshLits(s, c.NumKeys())
		keyB := FreshLits(s, c.NumKeys())
		share := NewShareCache()
		ca, err := Encode(s, c, Options{PILits: pis, KeyLits: keyA, Share: share})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cb, err := Encode(s, c, Options{PILits: pis, KeyLits: keyB, Share: share})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed + 2000))
		for trial := 0; trial < 12; trial++ {
			pi := c.RandomInputs(rng)
			ka := c.RandomKey(rng)
			kb := c.RandomKey(rng)
			var assumps []sat.Lit
			for i, l := range pis {
				assumps = append(assumps, mkAssump(l, pi[i]))
			}
			for i, l := range keyA {
				assumps = append(assumps, mkAssump(l, ka[i]))
			}
			for i, l := range keyB {
				assumps = append(assumps, mkAssump(l, kb[i]))
			}
			if got := s.Solve(assumps...); got != sat.Sat {
				t.Fatalf("seed %d trial %d: unsat under full assignment: %v", seed, trial, got)
			}
			wantA := c.Eval(pi, ka, nil)
			wantB := c.Eval(pi, kb, nil)
			for i := range wantA {
				gotA, gotB := wireVal(s, ca.Outs[i]), wireVal(s, cb.Outs[i])
				if gotA != wantA[i] || gotB != wantB[i] {
					t.Fatalf("seed %d trial %d output %d: copyA %v/%v copyB %v/%v",
						seed, trial, i, gotA, wantA[i], gotB, wantB[i])
				}
			}
		}
	}
}

func wireVal(s *sat.Solver, w Wire) bool {
	if w.Const {
		return w.Val
	}
	return s.ModelLit(w.Lit)
}

// TestShareCacheSolverGuard: reusing a cache in a different solver
// would splice dangling literals into the new formula; it must panic.
func TestShareCacheSolverGuard(t *testing.T) {
	c := randomCircuit(3, 4, 2, 20, 3)
	share := NewShareCache()
	s1 := sat.New()
	if _, err := Encode(s1, c, Options{Share: share}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on cross-solver cache reuse")
		}
	}()
	s2 := sat.New()
	Encode(s2, c, Options{Share: share}) //nolint:errcheck // panics first
}

// TestMiterSharingReducesVars measures the simplified, shared-cone
// miter on the c880 stand-in locked with 32 key bits (Table V's
// configuration). The new NewMiter (structural-hash rewriting +
// shared key-independent cone + polarity-dual variable reuse) must
// allocate at least 30% fewer solver variables than the pre-sharing
// construction: two independent encodings of the raw netlist, as the
// encoder produced before ShareCache existed. The new miter must
// also still drive a noiseless DIP loop to convergence.
func TestMiterSharingReducesVars(t *testing.T) {
	bm, ok := gen.ByName("c880")
	if !ok {
		t.Fatal("c880 benchmark missing")
	}
	orig := bm.Build()
	lk, err := lock.RLL(orig, 32, rand.New(rand.NewSource(880)))
	if err != nil {
		t.Fatal(err)
	}
	locked := lk.Circuit

	// New encoding: NewMiter (simplify + shared cone).
	m, err := NewMiter(locked)
	if err != nil {
		t.Fatal(err)
	}
	sharedVars := m.S.NumVars()

	// Reference encoding: the miter as built before this
	// optimisation — raw netlist, two full independent copies.
	s := sat.New()
	pis := FreshLits(s, locked.NumPIs())
	ca, err := Encode(s, locked, Options{PILits: pis, KeyLits: FreshLits(s, locked.NumKeys())})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Encode(s, locked, Options{PILits: pis, KeyLits: FreshLits(s, locked.NumKeys())})
	if err != nil {
		t.Fatal(err)
	}
	NotEqualAny(s, ca.Outs, cb.Outs)
	refVars := s.NumVars()

	t.Logf("c880/RLL32 miter: new=%d vars, ref=%d vars, %.1f%% reduction",
		sharedVars, refVars, 100*float64(refVars-sharedVars)/float64(refVars))
	if 10*sharedVars > 7*refVars {
		t.Errorf("sharing saved too little: %d vs %d vars (want ≥30%% reduction)",
			sharedVars, refVars)
	}

	// The leaner miter must still converge on the same workload.
	oracle := func(x []bool) []bool { return locked.Eval(x, lk.Key, nil) }
	const maxIter = 400
	iters := 0
	for ; iters < maxIter && m.S.Solve() == sat.Sat; iters++ {
		x := m.Input()
		y := oracle(x)
		outA, outB, err := m.AddDIPCopies(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range y {
			Equal(m.S, outA[j], y[j])
			Equal(m.S, outB[j], y[j])
		}
	}
	if iters == maxIter {
		t.Fatalf("attack did not converge within %d iterations", maxIter)
	}
	t.Logf("noiseless DIP loop converged after %d DIPs, %d vars total", iters, m.S.NumVars())
}

// TestMiterSharedAttackLoop re-runs the c17 attack loop of
// TestMiterFullAttackLoop semantics on a locked random circuit to
// check end-to-end behaviour with shared cones and DIP-copy caches:
// the recovered key must be functionally correct.
func TestMiterSharedAttackLoop(t *testing.T) {
	bm := gen.Benchmark{Name: "t", Inputs: 10, Gates: 120, Outputs: 6, Seed: 7}
	orig := bm.Build()
	lk, err := lock.RLL(orig, 8, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	locked := lk.Circuit
	m, err := NewMiter(locked)
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeySolver(m.C)
	oracle := func(x []bool) []bool { return locked.Eval(x, lk.Key, nil) }
	for iter := 0; iter < 200; iter++ {
		if m.S.Solve() != sat.Sat {
			break // no distinguishing input left
		}
		x := m.Input()
		y := oracle(x)
		outA, outB, err := m.AddDIPCopies(x)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := ks.AddDIPCopy(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range y {
			Equal(m.S, outA[j], y[j])
			Equal(m.S, outB[j], y[j])
			Equal(ks.S, outs[j], y[j])
		}
	}
	if ks.S.Solve() != sat.Sat {
		t.Fatal("key solver unsat after attack loop")
	}
	key := ks.Key()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		x := locked.RandomInputs(rng)
		want := oracle(x)
		got := locked.Eval(x, key, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("recovered key wrong on input %v output %d", x, i)
			}
		}
	}
}
