package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"statsat/internal/circuit"
)

const c17Bench = `# c17
# 5 inputs, 2 outputs
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestParseC17(t *testing.T) {
	c, err := ParseString(c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "c17" {
		t.Errorf("name = %q, want c17", c.Name)
	}
	s := c.Summary()
	if s.Inputs != 5 || s.Gates != 6 || s.Outputs != 2 {
		t.Errorf("summary = %+v", s)
	}
	out := c.Eval([]bool{false, false, false, false, false}, nil, nil)
	// All-zero inputs: every first-level NAND is 1, 22 = NAND(1,16)...
	// compute by hand: 10=1, 11=1, 16=NAND(0,1)=1, 19=NAND(1,0)=1,
	// 22=NAND(1,1)=0, 23=NAND(1,1)=0.
	if out[0] != false || out[1] != false {
		t.Errorf("c17(00000) = %v", out)
	}
}

func TestParseKeyInputs(t *testing.T) {
	src := `
INPUT(a)
INPUT(keyinput10)
INPUT(keyinput2)
INPUT(keyinput0)
OUTPUT(y)
t = XOR(a, keyinput0)
u = XNOR(t, keyinput2)
y = XOR(u, keyinput10)
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumKeys() != 3 || c.NumPIs() != 1 {
		t.Fatalf("keys=%d pis=%d", c.NumKeys(), c.NumPIs())
	}
	// Numeric ordering: keyinput0, keyinput2, keyinput10.
	want := []string{"keyinput0", "keyinput2", "keyinput10"}
	for i, kid := range c.Keys {
		if c.Gates[kid].Name != want[i] {
			t.Errorf("key %d = %q, want %q", i, c.Gates[kid].Name, want[i])
		}
	}
}

func TestParseOutOfOrderDefinitions(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(u, v)
u = NOT(a)
v = NOT(b)
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Eval([]bool{false, false}, nil, nil)
	if got[0] != true {
		t.Errorf("AND(NOT a, NOT b)(0,0) = %v, want true", got[0])
	}
}

// TestParseLastFirstChain: a 100,000-gate NOT chain whose gates are
// declared before their drivers builds in linear time. A worklist that
// re-scans the pending gates once per pass took quadratic time on it.
func TestParseLastFirstChain(t *testing.T) {
	const n = 100000
	var sb strings.Builder
	sb.WriteString("INPUT(a)\nOUTPUT(y)\ny = BUFF(w0)\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "w%d = NOT(w%d)\n", i, i+1)
	}
	fmt.Fprintf(&sb, "w%d = NOT(a)\n", n-1)
	start := time.Now()
	c, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("parsing a %d-gate chain declared last-first took %v", n, el)
	}
	if c.NumLogicGates() != n+1 {
		t.Fatalf("%d logic gates, want %d", c.NumLogicGates(), n+1)
	}
	if got := c.Eval([]bool{true}, nil, nil)[0]; got != (n%2 == 0) {
		t.Errorf("chain(1) = %v", got)
	}
}

func TestParseGateKeywordAliases(t *testing.T) {
	// Aliases and ASCII case folding: every output must compute the
	// same function whatever the keyword's spelling.
	src := `
INPUT(a)
input(b)
OUTPUT(y1)
OUTPUT(y2)
output(y3)
OUTPUT(y4)
OUTPUT(y5)
y1 = BUFF(a)
y2 = INV(a)
y3 = buff(a)
y4 = inv(a)
y5 = nand(y3, b)
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPIs() != 2 || c.NumPOs() != 5 {
		t.Fatalf("interface %d PIs / %d POs, want 2/5", c.NumPIs(), c.NumPOs())
	}
	out := c.Eval([]bool{true, true}, nil, nil)
	if out[0] != true || out[1] != false || out[2] != true || out[3] != false || out[4] != false {
		t.Errorf("BUFF/INV/buff/inv/nand eval = %v", out)
	}
}

func TestParseMux(t *testing.T) {
	src := `
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
y = MUX(s, a, b)
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Eval([]bool{false, true, false}, nil, nil)[0]; got != true {
		t.Errorf("MUX(0,a=1,b=0) = %v, want a", got)
	}
	if got := c.Eval([]bool{true, true, false}, nil, nil)[0]; got != false {
		t.Errorf("MUX(1,a=1,b=0) = %v, want b", got)
	}
}

// parseErrorCases are netlists Parse must reject. line is the
// ParseError line; 0 marks errors found after the last line (an OUTPUT
// that is never defined).
var parseErrorCases = []struct {
	name string
	src  string
	line int
}{
	{"unknown keyword", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", 3},
	{"undefined signal", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", 3},
	{"undefined output", "INPUT(a)\nOUTPUT(nope)\n", 0},
	{"bad arity not", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n", 4},
	{"bad arity mux", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(a, b)\n", 4},
	{"garbage line", "INPUT(a)\nwhat is this\n", 2},
	{"empty operand", "INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n", 3},
	{"trailing comma", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b,)\n", 4},
	{"missing paren", "INPUT a\n", 1},
	{"empty input name", "INPUT()\n", 1},
	{"double definition", "INPUT(a)\nINPUT(a)\n", 2},
	{"gate redefines input", "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n", 3},
	{"cycle", "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n", 3},
	{"empty assign target", "INPUT(a)\n = NOT(a)\n", 2},
	{"dff two inputs", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ns = DFF(a, b)\ny = NOT(s)\n", 4},
	// Keywords fold ASCII letters only: dotless ı (U+0131) upper-cases
	// to I under Unicode rules, but it spells no keyword.
	{"non-ASCII gate keyword", "INPUT(a)\nOUTPUT(y)\ny = ınv(a)\n", 3},
	{"non-ASCII INPUT keyword", "ınput(a)\nOUTPUT(y)\ny = NOT(a)\n", 1},
	// Errors blame the line at fault: the gate that reads an undefined
	// signal, and a gate on a cycle.
	{"undefined signal behind a defined gate", "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(ghost)\n", 4},
	{"cycle feeding the output's gate", "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(w)\nw = NOT(z)\n", 4},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src)
			if err == nil {
				t.Fatalf("want parse error for %q", tc.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is %T, want *ParseError", err, err)
			}
			if pe.Line != tc.line {
				t.Errorf("error %q on line %d, want line %d", pe, pe.Line, tc.line)
			}
		})
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := ParseString("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("error string %q lacks line info", pe.Error())
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "# hello\n\n  \nINPUT(a) # trailing comment\nOUTPUT(y)\ny = NOT(a) # inline\n"
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "hello" {
		t.Errorf("name from comment = %q", c.Name)
	}
	if got := c.Eval([]bool{true}, nil, nil)[0]; got != false {
		t.Errorf("NOT(1) = %v", got)
	}
}

func TestRoundTripC17(t *testing.T) {
	c, err := ParseString(c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseString(Format(c))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, Format(c))
	}
	for m := 0; m < 32; m++ {
		pi := make([]bool, 5)
		for b := 0; b < 5; b++ {
			pi[b] = m>>b&1 == 1
		}
		a := c.Eval(pi, nil, nil)
		b := c2.Eval(pi, nil, nil)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("round-trip mismatch at %v: %v vs %v", pi, a, b)
		}
	}
}

func randomCircuit(seed int64, nIn, nGates, nOut, nKey int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("rt")
	for i := 0; i < nIn; i++ {
		c.AddInput("")
	}
	for i := 0; i < nKey; i++ {
		c.AddKey("")
	}
	types := []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for i := 0; i < nGates; i++ {
		ty := types[rng.Intn(len(types))]
		n := len(c.Gates)
		if ty == circuit.Not || ty == circuit.Buf {
			c.AddGate(ty, "", rng.Intn(n))
		} else {
			c.AddGate(ty, "", rng.Intn(n), rng.Intn(n))
		}
	}
	for i := 0; i < nOut; i++ {
		c.AddOutput(nIn+nKey+rng.Intn(nGates), "")
	}
	return c
}

// Property: Write/Parse round-trips preserve I/O behaviour on random
// circuits with keys.
func TestQuickRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randomCircuit(seed, 6, 30, 4, 3)
		text := Format(c)
		c2, err := ParseString(text)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, text)
		}
		if c2.NumPIs() != c.NumPIs() || c2.NumKeys() != c.NumKeys() || c2.NumPOs() != c.NumPOs() {
			t.Fatalf("seed %d: interface mismatch", seed)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		f := func(piBits, keyBits uint8) bool {
			pi := make([]bool, 6)
			key := make([]bool, 3)
			for i := range pi {
				pi[i] = piBits>>i&1 == 1
			}
			for i := range key {
				key[i] = keyBits>>i&1 == 1
			}
			a := c.Eval(pi, key, nil)
			b := c2.Eval(pi, key, nil)
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 30, Rand: rng}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestWriteConstGates(t *testing.T) {
	c := circuit.New("consts")
	c.AddInput("a")
	z := c.AddGate(circuit.Const0, "z")
	o := c.AddGate(circuit.Const1, "o")
	y := c.AddGate(circuit.Or, "y", z, o)
	c.AddOutput(y, "")
	text := Format(c)
	c2, err := ParseString(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if got := c2.Eval([]bool{true}, nil, nil)[0]; got != true {
		t.Errorf("const round-trip eval = %v", got)
	}
}

// TestWriteNamesBenchCannotCarry: names holding .bench syntax ("#",
// "=", parentheses, commas) are written under synthetic names, so the
// rendering parses back to the same function. A constant in a circuit
// without inputs, which .bench derives from an input, is an error.
func TestWriteNamesBenchCannotCarry(t *testing.T) {
	c := circuit.New("odd")
	a := c.AddInput("a#1")
	b := c.AddInput("b=c")
	g := c.AddGate(circuit.Xor, "f(a,b)", a, b)
	c.AddOutput(g, "")
	back, err := ParseString(Format(c))
	if err != nil {
		t.Fatalf("%v\n%s", err, Format(c))
	}
	for m := 0; m < 4; m++ {
		pi := []bool{m&1 == 1, m&2 == 2}
		if back.Eval(pi, nil, nil)[0] != c.Eval(pi, nil, nil)[0] {
			t.Fatalf("round trip differs at %v\n%s", pi, Format(c))
		}
	}

	k := circuit.New("inputless")
	one := k.AddGate(circuit.Const1, "one")
	k.AddOutput(one, "")
	if err := Write(io.Discard, k); err == nil {
		t.Error("Write accepted a constant it has no input to derive from")
	}
}

// TestParseDFFScanConversion: ISCAS89-style s27 fragment — DFFs become
// scan I/O (pseudo PI for Q, pseudo PO for D), the standard full-scan
// assumption of oracle-guided attacks.
func TestParseDFFScanConversion(t *testing.T) {
	src := `# s-mini
INPUT(a)
OUTPUT(y)
q = DFF(d)
n1 = NOT(q)
d = AND(a, n1)
y = OR(q, a)
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	// PIs: a + pseudo-PI q. POs: y + pseudo-PO for d.
	if c.NumPIs() != 2 {
		t.Fatalf("PIs = %d, want 2 (a + scan q)", c.NumPIs())
	}
	if c.NumPOs() != 2 {
		t.Fatalf("POs = %d, want 2 (y + scan d)", c.NumPOs())
	}
	// With a=1, q=0: d = AND(1, NOT(0)) = 1; y = OR(0,1) = 1.
	out := c.Eval([]bool{true, false}, nil, nil)
	if out[0] != true || out[1] != true {
		t.Errorf("scan eval = %v", out)
	}
	// With a=0, q=1: d = AND(0, NOT 1)=0; y = OR(1,0)=1.
	out = c.Eval([]bool{false, true}, nil, nil)
	if out[0] != true || out[1] != false {
		t.Errorf("scan eval2 = %v", out)
	}
	if c.OutputName(1) != "q_scanin" {
		t.Errorf("scan output name = %q", c.OutputName(1))
	}
}

func TestParseDFFErrors(t *testing.T) {
	if _, err := ParseString("INPUT(a)\nOUTPUT(y)\nq = DFF(a, b)\ny = NOT(q)\n"); err == nil {
		t.Error("want error for two-input DFF")
	}
	if _, err := ParseString("INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n"); err == nil {
		t.Error("want error for undefined DFF data input")
	}
}

func TestParseDFFLockable(t *testing.T) {
	// A scan-converted sequential circuit must be lockable/attackable
	// like any combinational netlist (keys still parse).
	src := `INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
q = DFF(d)
d = XOR(a, keyinput0)
y = AND(q, a)
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumKeys() != 1 || c.NumPIs() != 2 || c.NumPOs() != 2 {
		t.Fatalf("interface: %d keys %d PIs %d POs", c.NumKeys(), c.NumPIs(), c.NumPOs())
	}
}

func BenchmarkParseC17(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(c17Bench); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormatRandom(b *testing.B) {
	c := randomCircuit(3, 20, 500, 10, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Format(c)
	}
}
