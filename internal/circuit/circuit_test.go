package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildC17 constructs the ISCAS85 c17 benchmark by hand.
//
//	10 = NAND(1, 3)    11 = NAND(3, 6)
//	16 = NAND(2, 11)   19 = NAND(11, 7)
//	22 = NAND(10, 16)  23 = NAND(16, 19)
//	outputs: 22, 23
func buildC17(t testing.TB) *Circuit {
	c := New("c17")
	g1 := c.AddInput("1")
	g2 := c.AddInput("2")
	g3 := c.AddInput("3")
	g6 := c.AddInput("6")
	g7 := c.AddInput("7")
	g10 := c.AddGate(Nand, "10", g1, g3)
	g11 := c.AddGate(Nand, "11", g3, g6)
	g16 := c.AddGate(Nand, "16", g2, g11)
	g19 := c.AddGate(Nand, "19", g11, g7)
	g22 := c.AddGate(Nand, "22", g10, g16)
	g23 := c.AddGate(Nand, "23", g16, g19)
	c.AddOutput(g22, "")
	c.AddOutput(g23, "")
	if err := c.Validate(); err != nil {
		t.Fatalf("c17 validate: %v", err)
	}
	return c
}

func TestGateTypeEval(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []bool
		want bool
	}{
		{And, []bool{true, true}, true},
		{And, []bool{true, false}, false},
		{Nand, []bool{true, true}, false},
		{Nand, []bool{false, true}, true},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Nor, []bool{true, false}, false},
		{Xor, []bool{true, true}, false},
		{Xor, []bool{true, false}, true},
		{Xor, []bool{true, true, true}, true},
		{Xnor, []bool{true, false}, false},
		{Xnor, []bool{false, false}, true},
		{Not, []bool{true}, false},
		{Buf, []bool{true}, true},
		{Mux, []bool{false, true, false}, true},
		{Mux, []bool{true, true, false}, false},
		{Const0, nil, false},
		{Const1, nil, true},
		{And, []bool{true, true, true, false}, false},
		{Or, []bool{false, false, false, true}, true},
	}
	for _, tc := range cases {
		if got := tc.t.Eval(tc.in); got != tc.want {
			t.Errorf("%v.Eval(%v) = %v, want %v", tc.t, tc.in, got, tc.want)
		}
	}
}

func TestGateTypeString(t *testing.T) {
	if And.String() != "AND" || Xnor.String() != "XNOR" || Key.String() != "KEY" {
		t.Errorf("unexpected gate type names: %v %v %v", And, Xnor, Key)
	}
	if GateType(200).String() == "" {
		t.Error("out-of-range GateType should still stringify")
	}
}

func TestC17TruthTable(t *testing.T) {
	c := buildC17(t)
	// Reference implementation straight from the NAND equations.
	ref := func(in [5]bool) (bool, bool) {
		n1, n2, n3, n6, n7 := in[0], in[1], in[2], in[3], in[4]
		g10 := !(n1 && n3)
		g11 := !(n3 && n6)
		g16 := !(n2 && g11)
		g19 := !(g11 && n7)
		return !(g10 && g16), !(g16 && g19)
	}
	var pi [5]bool
	for m := 0; m < 32; m++ {
		for b := 0; b < 5; b++ {
			pi[b] = m>>b&1 == 1
		}
		out := c.Eval(pi[:], nil, nil)
		w22, w23 := ref(pi)
		if out[0] != w22 || out[1] != w23 {
			t.Fatalf("c17(%v) = %v,%v want %v,%v", pi, out[0], out[1], w22, w23)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("source with fanin", func(t *testing.T) {
		c := New("bad")
		a := c.AddInput("a")
		c.Gates[a].Fanin = []int{a}
		if err := c.Validate(); err == nil {
			t.Error("want error for input with fanin")
		}
	})
	t.Run("bad arity", func(t *testing.T) {
		c := New("bad")
		a := c.AddInput("a")
		c.AddGate(Not, "n", a, a)
		if err := c.Validate(); err == nil {
			t.Error("want error for 2-input NOT")
		}
	})
	t.Run("mux arity", func(t *testing.T) {
		c := New("bad")
		a := c.AddInput("a")
		b := c.AddInput("b")
		c.AddGate(Mux, "m", a, b)
		if err := c.Validate(); err == nil {
			t.Error("want error for 2-input MUX")
		}
	})
	t.Run("out of range fanin", func(t *testing.T) {
		c := New("bad")
		a := c.AddInput("a")
		c.AddGate(Not, "n", a+10)
		if err := c.Validate(); err == nil {
			t.Error("want error for out-of-range fanin")
		}
	})
	t.Run("out of range output", func(t *testing.T) {
		c := New("bad")
		c.AddInput("a")
		c.AddOutput(99, "")
		if err := c.Validate(); err == nil {
			t.Error("want error for out-of-range output")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		c := New("bad")
		a := c.AddInput("a")
		n1 := c.AddGate(And, "n1", a, a) // placeholder fanin, rewired below
		n2 := c.AddGate(And, "n2", a, n1)
		c.Gates[n1].Fanin = []int{a, n2}
		if err := c.Validate(); err == nil {
			t.Error("want error for combinational cycle")
		}
	})
	t.Run("valid empty", func(t *testing.T) {
		if err := New("empty").Validate(); err != nil {
			t.Errorf("empty circuit should validate: %v", err)
		}
	})
}

func TestKeyInputs(t *testing.T) {
	c := New("locked")
	a := c.AddInput("a")
	k := c.AddKey("k0")
	x := c.AddGate(Xor, "x", a, k)
	c.AddOutput(x, "y")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Eval([]bool{true}, []bool{false}, nil)[0]; got != true {
		t.Errorf("a^k with a=1,k=0: got %v want true", got)
	}
	if got := c.Eval([]bool{true}, []bool{true}, nil)[0]; got != false {
		t.Errorf("a^k with a=1,k=1: got %v want false", got)
	}
	if c.NumKeys() != 1 || c.NumPIs() != 1 || c.NumPOs() != 1 {
		t.Errorf("interface widths wrong: %d %d %d", c.NumKeys(), c.NumPIs(), c.NumPOs())
	}
}

func TestEvalPanicsOnWidthMismatch(t *testing.T) {
	c := buildC17(t)
	defer func() {
		if recover() == nil {
			t.Error("want panic on PI width mismatch")
		}
	}()
	c.Eval([]bool{true}, nil, nil)
}

func TestConstGates(t *testing.T) {
	c := New("consts")
	z := c.AddGate(Const0, "zero")
	o := c.AddGate(Const1, "one")
	a := c.AddGate(And, "a", z, o)
	r := c.AddGate(Or, "r", z, o)
	c.AddOutput(a, "")
	c.AddOutput(r, "")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	out := c.Eval(nil, nil, nil)
	if out[0] != false || out[1] != true {
		t.Errorf("const eval got %v", out)
	}
}

func TestEvalNoisyZeroEpsMatchesEval(t *testing.T) {
	c := buildC17(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		pi := c.RandomInputs(rng)
		a := c.Eval(pi, nil, nil)
		b := c.EvalNoisy(pi, nil, 0, rng, nil)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("eps=0 noisy eval diverged on %v", pi)
			}
		}
	}
}

func TestEvalNoisyFlipRate(t *testing.T) {
	// Single BUF gate: output BER must be ~eps.
	c := New("buf")
	a := c.AddInput("a")
	b := c.AddGate(Buf, "b", a)
	c.AddOutput(b, "")
	rng := rand.New(rand.NewSource(7))
	const eps = 0.2
	const n = 20000
	flips := 0
	for i := 0; i < n; i++ {
		if c.EvalNoisy([]bool{true}, nil, eps, rng, nil)[0] != true {
			flips++
		}
	}
	got := float64(flips) / n
	if got < 0.17 || got > 0.23 {
		t.Errorf("BUF flip rate %.4f, want ~%.2f", got, eps)
	}
}

func TestEvalNoisyEpsOneInvertsEverything(t *testing.T) {
	c := New("inv")
	a := c.AddInput("a")
	b := c.AddGate(Buf, "b", a)
	c.AddOutput(b, "")
	rng := rand.New(rand.NewSource(3))
	if c.EvalNoisy([]bool{true}, nil, 1.0, rng, nil)[0] != false {
		t.Error("eps=1 should always flip the single gate")
	}
}

func TestTopoOrderProperties(t *testing.T) {
	c := buildC17(t)
	order := c.MustTopoOrder()
	pos := make([]int, len(c.Gates))
	for i, id := range order {
		pos[id] = i
	}
	for id := range c.Gates {
		for _, f := range c.Gates[id].Fanin {
			if pos[f] >= pos[id] {
				t.Fatalf("gate %d before its fanin %d", id, f)
			}
		}
	}
	if len(order) != c.NumGates() {
		t.Fatalf("topo order has %d entries, want %d", len(order), c.NumGates())
	}
}

func TestLevels(t *testing.T) {
	c := buildC17(t)
	lv, depth := c.Levels()
	if depth != 3 {
		t.Errorf("c17 depth = %d, want 3", depth)
	}
	for _, id := range c.PIs {
		if lv[id] != 0 {
			t.Errorf("input %d at level %d", id, lv[id])
		}
	}
}

func TestFanoutsAndCones(t *testing.T) {
	c := buildC17(t)
	fan := c.Fanouts()
	g11, _ := c.GateByName("11")
	if len(fan[g11]) != 2 {
		t.Errorf("gate 11 fanout = %d, want 2", len(fan[g11]))
	}
	cone := c.OutputCone(fan, g11)
	g22, _ := c.GateByName("22")
	g23, _ := c.GateByName("23")
	g7, _ := c.GateByName("7")
	inCone := func(g int) bool { return cone[g>>6]&(1<<uint(g&63)) != 0 }
	if !inCone(g11) || !inCone(g22) || !inCone(g23) {
		t.Error("gate 11's cone should hold itself and both outputs")
	}
	if inCone(g7) {
		t.Error("input 7 should not be in the fanout cone of gate 11")
	}
	in := c.InputCone(g22)
	if in[g7] {
		t.Error("input 7 should not be in the fanin cone of gate 22")
	}
	reach := c.ReachesOutput()
	for id := range c.Gates {
		if !reach[id] {
			t.Errorf("gate %d unobservable in c17", id)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := buildC17(t)
	d := c.Clone()
	d.Gates[5].Fanin[0] = 0
	d.PIs[0] = 99
	if c.Gates[5].Fanin[0] == 0 && c.PIs[0] == 99 {
		t.Error("Clone shares state with original")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("original damaged by clone mutation: %v", err)
	}
}

func TestSummary(t *testing.T) {
	c := buildC17(t)
	s := c.Summary()
	if s.Inputs != 5 || s.Gates != 6 || s.Outputs != 2 || s.Depth != 3 || s.Keys != 0 {
		t.Errorf("c17 summary = %+v", s)
	}
}

func TestOutputName(t *testing.T) {
	c := New("n")
	a := c.AddInput("a")
	c.AddOutput(a, "")
	c.AddOutput(a, "alias")
	if c.OutputName(0) != "a" || c.OutputName(1) != "alias" {
		t.Errorf("output names: %q %q", c.OutputName(0), c.OutputName(1))
	}
}

// randomCircuit builds a random valid DAG circuit from a seed, used by
// property tests here and reused conceptually by internal/gen.
func randomCircuit(seed int64, nIn, nGates, nOut int) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := New("rand")
	for i := 0; i < nIn; i++ {
		c.AddInput("")
	}
	types := []GateType{And, Nand, Or, Nor, Xor, Xnor, Not}
	for i := 0; i < nGates; i++ {
		ty := types[rng.Intn(len(types))]
		n := len(c.Gates)
		if ty == Not {
			c.AddGate(ty, "", rng.Intn(n))
		} else {
			c.AddGate(ty, "", rng.Intn(n), rng.Intn(n))
		}
	}
	for i := 0; i < nOut; i++ {
		c.AddOutput(nIn+rng.Intn(nGates), "")
	}
	return c
}

func TestRandomCircuitsValidate(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		c := randomCircuit(seed, 8, 40, 5)
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Property: evaluation is deterministic — same inputs, same outputs.
func TestQuickEvalDeterministic(t *testing.T) {
	c := randomCircuit(42, 10, 60, 6)
	f := func(bits uint16) bool {
		pi := make([]bool, 10)
		for i := range pi {
			pi[i] = bits>>i&1 == 1
		}
		a := c.Eval(pi, nil, nil)
		b := c.Eval(pi, nil, nil)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: XOR-locking a wire with key=0 preserves the function.
func TestQuickXorKeyZeroTransparent(t *testing.T) {
	base := randomCircuit(7, 8, 30, 4)
	locked := base.Clone()
	// Insert an XOR key gate in front of output 0's driver.
	drv := locked.POs[0]
	k := locked.AddKey("k0")
	x := locked.AddGate(Xor, "xk", drv, k)
	locked.POs[0] = x
	if err := locked.Validate(); err != nil {
		t.Fatal(err)
	}
	f := func(bits uint8) bool {
		pi := make([]bool, 8)
		for i := range pi {
			pi[i] = bits>>i&1 == 1
		}
		want := base.Eval(pi, nil, nil)
		got := locked.Eval(pi, []bool{false}, nil)
		bad := locked.Eval(pi, []bool{true}, nil)
		return got[0] == want[0] && bad[0] != want[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalScratchReuse(t *testing.T) {
	c := buildC17(t)
	scratch := make([]bool, c.NumGates())
	pi := []bool{true, false, true, true, false}
	a := c.Eval(pi, nil, scratch)
	b := c.Eval(pi, nil, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("scratch-backed eval differs")
		}
	}
}

func BenchmarkEvalC17(b *testing.B) {
	c := buildC17(b)
	pi := []bool{true, false, true, true, false}
	scratch := make([]bool, c.NumGates())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.EvalWires(pi, nil, scratch)
	}
}

func BenchmarkEvalRandom2k(b *testing.B) {
	c := randomCircuit(1, 50, 2000, 20)
	rng := rand.New(rand.NewSource(2))
	pi := c.RandomInputs(rng)
	scratch := make([]bool, c.NumGates())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.EvalWires(pi, nil, scratch)
	}
}

func BenchmarkEvalNoisy2k(b *testing.B) {
	c := randomCircuit(1, 50, 2000, 20)
	rng := rand.New(rand.NewSource(2))
	pi := c.RandomInputs(rng)
	scratch := make([]bool, c.NumGates())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.EvalNoisy(pi, nil, 0.01, rng, scratch)
	}
}
