package lock

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
)

// exhaustiveEquiv checks functional equivalence of locked(key) vs the
// original over the full input space (inputs must be small).
func exhaustiveEquiv(t *testing.T, orig *circuit.Circuit, l *Locked, key []bool) bool {
	t.Helper()
	n := orig.NumPIs()
	if n > 16 {
		t.Fatal("exhaustiveEquiv only for small circuits")
	}
	pi := make([]bool, n)
	for m := 0; m < 1<<uint(n); m++ {
		for b := 0; b < n; b++ {
			pi[b] = m>>uint(b)&1 == 1
		}
		a := orig.Eval(pi, nil, nil)
		b := l.Circuit.Eval(pi, key, nil)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// sampledEquiv checks equivalence on random vectors for larger circuits.
func sampledEquiv(orig *circuit.Circuit, l *Locked, key []bool, samples int, rng *rand.Rand) bool {
	for s := 0; s < samples; s++ {
		pi := orig.RandomInputs(rng)
		a := orig.Eval(pi, nil, nil)
		b := l.Circuit.Eval(pi, key, nil)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

func TestRLLCorrectKeyRestoresFunction(t *testing.T) {
	orig := gen.C17()
	rng := rand.New(rand.NewSource(1))
	l, err := RLL(orig, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if l.Circuit.NumKeys() != 4 || len(l.Key) != 4 {
		t.Fatalf("key width %d/%d", l.Circuit.NumKeys(), len(l.Key))
	}
	if !exhaustiveEquiv(t, orig, l, l.Key) {
		t.Error("correct key does not restore c17")
	}
	if l.Technique != "RLL" {
		t.Errorf("technique = %q", l.Technique)
	}
}

func TestRLLWrongKeysCorrupt(t *testing.T) {
	orig := gen.C17()
	rng := rand.New(rand.NewSource(2))
	l, err := RLL(orig, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-bit flip of the correct key must corrupt at least
	// one input pattern (XOR locks guarantee this).
	for b := 0; b < 4; b++ {
		wrong := append([]bool(nil), l.Key...)
		wrong[b] = !wrong[b]
		if exhaustiveEquiv(t, orig, l, wrong) {
			t.Errorf("flipping key bit %d leaves function unchanged", b)
		}
	}
}

func TestRLLOriginalUntouched(t *testing.T) {
	orig := gen.C17()
	before := orig.NumGates()
	rng := rand.New(rand.NewSource(3))
	if _, err := RLL(orig, 3, rng); err != nil {
		t.Fatal(err)
	}
	if orig.NumGates() != before || orig.NumKeys() != 0 {
		t.Error("RLL mutated the input circuit")
	}
}

func TestRLLErrors(t *testing.T) {
	orig := gen.C17()
	rng := rand.New(rand.NewSource(4))
	if _, err := RLL(orig, 0, rng); err == nil {
		t.Error("want error for 0 keys")
	}
	if _, err := RLL(orig, 100, rng); err == nil {
		t.Error("want error for more keys than wires")
	}
	l, _ := RLL(orig, 2, rng)
	if _, err := RLL(l.Circuit, 2, rng); err == nil {
		t.Error("want error for re-locking a locked circuit")
	}
}

func TestRLLOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 5; seed++ {
		orig := gen.Random("r", 10, 120, 8, seed)
		l, err := RLL(orig, 16, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !sampledEquiv(orig, l, l.Key, 100, rng) {
			t.Errorf("seed %d: correct key fails", seed)
		}
		wrong := append([]bool(nil), l.Key...)
		wrong[0] = !wrong[0]
		if sampledEquiv(orig, l, wrong, 200, rng) {
			t.Errorf("seed %d: wrong key appears functional", seed)
		}
	}
}

func TestSLLCorrectKeyRestoresFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	orig := gen.Random("s", 12, 200, 10, 77)
	l, err := SLL(orig, 24, rng)
	if err != nil {
		t.Fatal(err)
	}
	if l.Circuit.NumKeys() != 24 {
		t.Fatalf("key width %d", l.Circuit.NumKeys())
	}
	if !sampledEquiv(orig, l, l.Key, 150, rng) {
		t.Error("correct key does not restore function")
	}
	if l.Technique != "SLL" {
		t.Errorf("technique = %q", l.Technique)
	}
}

func TestSLLWrongKeyCorrupts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := gen.Random("s", 12, 200, 10, 78)
	l, err := SLL(orig, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]bool(nil), l.Key...)
	for i := range wrong {
		wrong[i] = !wrong[i]
	}
	if sampledEquiv(orig, l, wrong, 200, rng) {
		t.Error("all-flipped key appears functional")
	}
}

func TestSLLKeyGatesInterfere(t *testing.T) {
	// Structural property: at least some pairs of SLL key gates must
	// share fanout cone without dominating each other. We verify the
	// selection produced interconnected key gates by checking that key
	// gate cones overlap pairwise more often than not for small sets.
	rng := rand.New(rand.NewSource(8))
	orig := gen.Random("s", 12, 300, 6, 79)
	l, err := SLL(orig, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := l.Circuit
	// Find the key-gate outputs (gates named kg_*).
	var kgs []int
	for id := range c.Gates {
		if len(c.Gates[id].Name) > 3 && c.Gates[id].Name[:3] == "kg_" {
			kgs = append(kgs, id)
		}
	}
	if len(kgs) != 6 {
		t.Fatalf("found %d key gates", len(kgs))
	}
	overlaps := 0
	fan := c.Fanouts()
	for i := 0; i < len(kgs); i++ {
		ci := c.OutputCone(fan, kgs[i])
		for j := i + 1; j < len(kgs); j++ {
			cj := c.OutputCone(fan, kgs[j])
			for w := range ci {
				if ci[w]&cj[w] != 0 {
					overlaps++
					break
				}
			}
		}
	}
	if overlaps == 0 {
		t.Error("no pair of SLL key gates shares a fanout cone")
	}
}

// TestSLLMatchesBoolConeSelection holds SLL, which keeps its cones as
// word bitsets, to refSLL, the selection it replaced: one []bool cone
// per candidate, each from a fresh fanout walk, scanned byte by byte.
// On random circuits (some past the 256-candidate pool cap) and seeds,
// both must lock the same wires with the same key.
func TestSLLMatchesBoolConeSelection(t *testing.T) {
	for i, sz := range []struct{ in, gates, out, keys int }{
		{8, 60, 4, 4}, {12, 200, 10, 16}, {12, 300, 6, 6}, {16, 500, 12, 24}, {20, 900, 16, 32}, {10, 150, 3, 8},
	} {
		orig := gen.Random("s", sz.in, sz.gates, sz.out, int64(100+i))
		for seed := int64(1); seed <= 4; seed++ {
			got, err := SLL(orig, sz.keys, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := refSLL(orig, sz.keys, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("circuit %d (%d gates, %d keys) seed %d: SLL locks differently from the []bool selection",
					i, sz.gates, sz.keys, seed)
			}
		}
	}
}

// refSLL is SLL with the []bool cones it used before: the reference
// of TestSLLMatchesBoolConeSelection.
func refSLL(orig *circuit.Circuit, nKeys int, rng *rand.Rand) (*Locked, error) {
	c := orig.Clone()
	c.Name = orig.Name + "-sll"
	cand := lockableWires(c)
	const maxPool = 256
	if len(cand) > maxPool {
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		cand = cand[:maxPool]
	}
	cone := func(id int) []bool {
		fan := c.Fanouts()
		in := make([]bool, len(c.Gates))
		stack := []int{id}
		in[id] = true
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range fan[g] {
				if !in[s] {
					in[s] = true
					stack = append(stack, s)
				}
			}
		}
		return in
	}
	cones := make(map[int][]bool, len(cand))
	for _, w := range cand {
		cones[w] = cone(w)
	}
	interferes := func(a, b int) bool {
		if cones[a][b] || cones[b][a] {
			return false
		}
		ca, cb := cones[a], cones[b]
		for id := range ca {
			if ca[id] && cb[id] {
				return true
			}
		}
		return false
	}
	selected := []int{cand[rng.Intn(len(cand))]}
	inSel := map[int]bool{selected[0]: true}
	for len(selected) < nKeys {
		best, bestScore := -1, -1
		for _, w := range cand {
			if inSel[w] {
				continue
			}
			score := 0
			for _, s := range selected {
				if interferes(w, s) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = w, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("refSLL: candidate pool exhausted at %d keys", len(selected))
		}
		selected = append(selected, best)
		inSel[best] = true
	}
	key := make([]bool, nKeys)
	for i, w := range selected {
		key[i] = insertKeyGate(c, w, rng.Intn(2) == 1, fmt.Sprintf("keyinput%d", i))
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Locked{Circuit: c, Key: key, Technique: "SLL"}, nil
}

func TestSLLErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := SLL(gen.C17(), 0, rng); err == nil {
		t.Error("want error for 0 keys")
	}
	if _, err := SLL(gen.C17(), 50, rng); err == nil {
		t.Error("want error for too many keys")
	}
}

func TestSFLLHD0CorrectKeyRestores(t *testing.T) {
	orig := gen.C17()
	rng := rand.New(rand.NewSource(10))
	l, err := SFLLHD(orig, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !exhaustiveEquiv(t, orig, l, l.Key) {
		t.Error("correct key does not restore c17 under SFLL-HD^0")
	}
	if l.Technique != "SFLL-HD^0" {
		t.Errorf("technique = %q", l.Technique)
	}
}

func TestSFLLHD0WrongKeyCorruptsExactCubes(t *testing.T) {
	// For SFLL-HD^0 a wrong key K corrupts exactly the inputs whose
	// protected bits equal K or equal the secret (double flip cancels
	// nowhere since flip* and flip disagree exactly there).
	orig := gen.C17()
	rng := rand.New(rand.NewSource(11))
	l, err := SFLLHD(orig, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]bool(nil), l.Key...)
	wrong[2] = !wrong[2]
	diffs := 0
	pi := make([]bool, 5)
	for m := 0; m < 32; m++ {
		for b := 0; b < 5; b++ {
			pi[b] = m>>uint(b)&1 == 1
		}
		a := orig.Eval(pi, nil, nil)
		bo := l.Circuit.Eval(pi, wrong, nil)
		for i := range a {
			if a[i] != bo[i] {
				diffs++
				break
			}
		}
	}
	// 4 protected bits of 5 inputs: the wrong-key and secret cubes each
	// cover 2 of 32 patterns → exactly 4 corrupted patterns.
	if diffs != 4 {
		t.Errorf("wrong key corrupts %d/32 patterns, want 4", diffs)
	}
}

func TestSFLLHDNonZeroH(t *testing.T) {
	orig := gen.C17()
	for h := 0; h <= 4; h++ {
		rng := rand.New(rand.NewSource(int64(20 + h)))
		l, err := SFLLHD(orig, 4, h, rng)
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		if !exhaustiveEquiv(t, orig, l, l.Key) {
			t.Errorf("h=%d: correct key fails", h)
		}
		// A single-bit-flipped key is never equivalent under SFLL-HD
		// (unlike the antipodal key, which IS equivalent when
		// h == keyBits-h): pick X at distance h from the secret with
		// the flipped position among the differing bits; then
		// HD(X, wrong) = h-1 and the predicates disagree.
		wrong := append([]bool(nil), l.Key...)
		wrong[1] = !wrong[1]
		if exhaustiveEquiv(t, orig, l, wrong) {
			t.Errorf("h=%d: single-bit-flipped key appears functional", h)
		}
	}
}

func TestSFLLHDProtectedOutput(t *testing.T) {
	orig := gen.C17()
	rng := rand.New(rand.NewSource(30))
	l, err := SFLLHDOutput(orig, 3, 0, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !exhaustiveEquiv(t, orig, l, l.Key) {
		t.Error("correct key fails with protected output 1")
	}
	// A wrong key must only ever corrupt output 1.
	wrong := append([]bool(nil), l.Key...)
	wrong[0] = !wrong[0]
	pi := make([]bool, 5)
	for m := 0; m < 32; m++ {
		for b := 0; b < 5; b++ {
			pi[b] = m>>uint(b)&1 == 1
		}
		a := orig.Eval(pi, nil, nil)
		bo := l.Circuit.Eval(pi, wrong, nil)
		if a[0] != bo[0] {
			t.Fatalf("wrong key corrupted unprotected output 0 at %v", pi)
		}
	}
}

func TestSFLLHDErrors(t *testing.T) {
	orig := gen.C17()
	rng := rand.New(rand.NewSource(31))
	if _, err := SFLLHD(orig, 0, 0, rng); err == nil {
		t.Error("want error for 0 keys")
	}
	if _, err := SFLLHD(orig, 6, 0, rng); err == nil {
		t.Error("want error for keyBits > inputs")
	}
	if _, err := SFLLHD(orig, 4, 5, rng); err == nil {
		t.Error("want error for h > keyBits")
	}
	if _, err := SFLLHD(orig, 4, -1, rng); err == nil {
		t.Error("want error for negative h")
	}
	if _, err := SFLLHDOutput(orig, 4, 0, 9, rng); err == nil {
		t.Error("want error for protected output out of range")
	}
	l, _ := RLL(orig, 2, rng)
	if _, err := SFLLHD(l.Circuit, 2, 0, rng); err == nil {
		t.Error("want error for locking a locked circuit")
	}
}

func TestSFLLHDOnLargerCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	orig := gen.Random("big", 24, 400, 12, 55)
	l, err := SFLLHD(orig, 12, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !sampledEquiv(orig, l, l.Key, 300, rng) {
		t.Error("correct key fails on larger circuit")
	}
}

func TestPopcountCircuit(t *testing.T) {
	// Build popcount over 7 free inputs and compare to bits.OnesCount.
	c := circuit.New("pc")
	var ins []int
	for i := 0; i < 7; i++ {
		ins = append(ins, c.AddInput(""))
	}
	sum := popcount(c, ins, "t")
	for _, s := range sum {
		c.AddOutput(s, "")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	pi := make([]bool, 7)
	for m := 0; m < 128; m++ {
		want := 0
		for b := 0; b < 7; b++ {
			pi[b] = m>>uint(b)&1 == 1
			if pi[b] {
				want++
			}
		}
		out := c.Eval(pi, nil, nil)
		got := 0
		for i, v := range out {
			if v {
				got |= 1 << uint(i)
			}
		}
		if got != want {
			t.Fatalf("popcount(%07b) = %d, want %d", m, got, want)
		}
	}
}

func TestHammingEqualsCircuit(t *testing.T) {
	for h := 0; h <= 5; h++ {
		c := circuit.New("he")
		var ins []int
		for i := 0; i < 5; i++ {
			ins = append(ins, c.AddInput(""))
		}
		p := hammingEquals(c, ins, h, "t")
		c.AddOutput(p, "")
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		pi := make([]bool, 5)
		for m := 0; m < 32; m++ {
			ones := 0
			for b := 0; b < 5; b++ {
				pi[b] = m>>uint(b)&1 == 1
				if pi[b] {
					ones++
				}
			}
			got := c.Eval(pi, nil, nil)[0]
			if got != (ones == h) {
				t.Fatalf("h=%d: predicate(%05b) = %v, want %v", h, m, got, ones == h)
			}
		}
	}
}

func TestInsertKeyGateRewiresOutputs(t *testing.T) {
	// Locking a wire that directly drives an output must rewire the PO.
	c := circuit.New("po")
	a := c.AddInput("a")
	n := c.AddGate(circuit.Not, "n", a)
	c.AddOutput(n, "y")
	bit := insertKeyGate(c, n, true, "keyinput0")
	if !bit {
		t.Error("XNOR key gate correct bit should be 1")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Eval([]bool{true}, []bool{true}, nil)[0]; got != false {
		t.Errorf("locked NOT(1) with correct key = %v, want false", got)
	}
	if got := c.Eval([]bool{true}, []bool{false}, nil)[0]; got != true {
		t.Errorf("locked NOT(1) with wrong key = %v, want true", got)
	}
}

func TestCostVersus(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	orig := gen.Random("cost", 12, 100, 6, 9)
	l, err := RLL(orig, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	o := l.CostVersus(orig)
	if o.OrigGates != 100 || o.KeyBits != 10 {
		t.Errorf("overhead = %+v", o)
	}
	// RLL adds exactly one XOR/XNOR per key bit.
	if o.ExtraGates != 10 {
		t.Errorf("RLL extra gates = %d, want 10", o.ExtraGates)
	}
	if o.GatePercent != 10 {
		t.Errorf("percent = %v", o.GatePercent)
	}
	// SFLL adds the two comparator trees: overhead grows with key width.
	s1, _ := SFLLHD(orig, 4, 0, rand.New(rand.NewSource(1)))
	s2, _ := SFLLHD(orig, 10, 0, rand.New(rand.NewSource(1)))
	if s2.CostVersus(orig).ExtraGates <= s1.CostVersus(orig).ExtraGates {
		t.Error("SFLL overhead should grow with key width")
	}
}

func TestLockedKeyWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	orig := gen.Random("w", 10, 80, 6, 3)
	for _, tc := range []struct {
		name string
		mk   func() (*Locked, error)
	}{
		{"RLL", func() (*Locked, error) { return RLL(orig, 8, rng) }},
		{"SLL", func() (*Locked, error) { return SLL(orig, 8, rng) }},
		{"SFLL", func() (*Locked, error) { return SFLLHD(orig, 8, 0, rng) }},
	} {
		l, err := tc.mk()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(l.Key) != l.Circuit.NumKeys() {
			t.Errorf("%s: key %d vs circuit %d", tc.name, len(l.Key), l.Circuit.NumKeys())
		}
	}
}

func BenchmarkRLL64OnC3540Scale8(b *testing.B) {
	bm, _ := gen.ByName("c3540")
	orig := bm.BuildScaled(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		if _, err := RLL(orig, 64, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSFLLHD16OnC3540Scale8(b *testing.B) {
	bm, _ := gen.ByName("c3540")
	orig := bm.BuildScaled(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		if _, err := SFLLHD(orig, 16, 0, rng); err != nil {
			b.Fatal(err)
		}
	}
}
