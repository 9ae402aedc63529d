package verilog

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"statsat/internal/bench"
	"statsat/internal/circuit"
	"statsat/internal/gen"
	"statsat/internal/lock"
)

const c17Verilog = `// ISCAS85 c17
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand g1 (N10, N1, N3);
  nand g2 (N11, N3, N6);
  nand g3 (N16, N2, N11);
  nand g4 (N19, N11, N7);
  nand g5 (N22, N10, N16);
  nand g6 (N23, N16, N19);
endmodule
`

func TestParseC17(t *testing.T) {
	c, err := ParseString(c17Verilog)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "c17" {
		t.Errorf("module name = %q", c.Name)
	}
	s := c.Summary()
	if s.Inputs != 5 || s.Gates != 6 || s.Outputs != 2 {
		t.Fatalf("summary = %+v", s)
	}
	// Must agree with the canonical c17 on the full truth table.
	ref := gen.C17()
	pi := make([]bool, 5)
	for m := 0; m < 32; m++ {
		for b := 0; b < 5; b++ {
			pi[b] = m>>uint(b)&1 == 1
		}
		a := ref.Eval(pi, nil, nil)
		g := c.Eval(pi, nil, nil)
		if a[0] != g[0] || a[1] != g[1] {
			t.Fatalf("c17 mismatch at %v: %v vs %v", pi, g, a)
		}
	}
}

func TestParseMultiLineAndComments(t *testing.T) {
	src := `
module m (a,
          b, /* block
          comment spanning lines */ y);
  input a, b;   // line comment
  output y;
  and g1 (y,
          a, b);
endmodule
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Eval([]bool{true, true}, nil, nil)[0]; got != true {
		t.Errorf("AND(1,1) = %v", got)
	}
}

func TestParseKeyInputs(t *testing.T) {
	src := `
module locked (a, keyinput1, keyinput0, y);
  input a;
  input keyinput1, keyinput0;
  output y;
  wire t;
  xor g1 (t, a, keyinput0);
  xnor g2 (y, t, keyinput1);
endmodule
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumKeys() != 2 || c.NumPIs() != 1 {
		t.Fatalf("keys=%d pis=%d", c.NumKeys(), c.NumPIs())
	}
	if c.Gates[c.Keys[0]].Name != "keyinput0" {
		t.Error("key ordering wrong")
	}
}

func TestParseAssignAndConstants(t *testing.T) {
	src := `
module m (a, y1, y2, y3);
  input a;
  output y1, y2, y3;
  wire w;
  not g1 (w, a);
  assign y1 = w;
  assign y2 = 1'b1;
  assign y3 = 1'b0;
endmodule
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Eval([]bool{true}, nil, nil)
	if out[0] != false || out[1] != true || out[2] != false {
		t.Errorf("eval = %v", out)
	}
}

func TestParseOutOfOrder(t *testing.T) {
	src := `
module m (a, y);
  input a;
  output y;
  wire w1, w2;
  and g2 (y, w1, w2);
  not g1 (w1, a);
  buf g0 (w2, a);
endmodule
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Eval([]bool{true}, nil, nil)[0]; got != false {
		t.Errorf("a AND NOT a = %v", got)
	}
}

// parseErrorCases are modules Parse must reject. When signal is set,
// the error must name it, and blame the statement stmt.
var parseErrorCases = []struct{ name, src, signal, stmt string }{
	{"behavioural assign", "module m(a,y); input a; output y; assign y = a & a; endmodule", "", ""},
	{"always block", "module m(a,y); input a; output y; always @(a) y = a; endmodule", "", ""},
	{"undriven output", "module m(a,y); input a; output y; endmodule", "y", "endmodule"},
	{"undeclared signal ok but undriven", "module m(a,y); input a; output y; and g(y, a, ghost); endmodule", "ghost", "and g(y, a, ghost)"},
	{"double driver", "module m(a,y); input a; output y; not g1(y,a); buf g2(y,a); endmodule", "y", "buf g2(y,a)"},
	{"cycle", "module m(a,y); input a; output y; wire w; and g1(y,a,w); not g2(w,y); endmodule", "", ""},
	{"bad arity not", "module m(a,b,y); input a,b; output y; not g(y,a,b); endmodule", "", ""},
	{"malformed gate", "module m(a,y); input a; output y; and g y a; endmodule", "", ""},
	{"empty port", "module m(a,y); input a; output y; and g(y,,a); endmodule", "", ""},
	// A signal is declared once: a repeated input is not a second input.
	{"input declared twice", "module m(a,y); input a; input a; output y; not g(y,a); endmodule", "a", "input a"},
	{"key input declared twice", "module m(a,keyinput0,y); input a, keyinput0, keyinput0; output y; xor g(y,a,keyinput0); endmodule",
		"keyinput0", "input a, keyinput0, keyinput0"},
	// Errors blame the statement at fault: the gate that reads an
	// undefined signal, and a gate on a cycle.
	{"undefined signal behind a declared wire", "module m(a,y); input a; output y; wire z; and (y, a, z); not (z, ghost); endmodule",
		"ghost", "not (z, ghost)"},
	{"cycle feeding the output's gate", "module m(a,y); input a; output y; wire z, w; and (y, a, z); not (z, w); not (w, z); endmodule",
		"z", "not (z, w)"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src)
			if err == nil {
				t.Fatalf("want error for %s", tc.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is %T, want *ParseError", err, err)
			}
			if tc.signal == "" {
				return
			}
			if !strings.Contains(pe.Msg, strconv.Quote(tc.signal)) || pe.Stmt != tc.stmt {
				t.Errorf("error %q in %q, want one naming %q in %q", pe.Msg, pe.Stmt, tc.signal, tc.stmt)
			}
		})
	}
}

// TestParseRepeatedOutput: an output may be declared more than once,
// and is then more than one primary output.
func TestParseRepeatedOutput(t *testing.T) {
	c, err := ParseString("module m(a,y); input a; output y; output y; not g(y,a); endmodule")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPIs() != 1 || c.NumPOs() != 2 {
		t.Fatalf("interface %d PIs / %d POs, want 1/2", c.NumPIs(), c.NumPOs())
	}
}

func TestParseErrorString(t *testing.T) {
	_, err := ParseString("module m(a,y); input a; output y; frobnicate g(y,a); endmodule")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "frobnicate") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 8; seed++ {
		orig := gen.Random("rt", 8, 60, 5, seed)
		text := Format(orig)
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, text)
		}
		for trial := 0; trial < 40; trial++ {
			pi := orig.RandomInputs(rng)
			a := orig.Eval(pi, nil, nil)
			b := back.Eval(pi, nil, nil)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: round-trip mismatch at output %d", seed, i)
				}
			}
		}
	}
}

func TestWriteRoundTripLockedCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	orig := gen.Random("lk", 10, 80, 6, 3)
	l, err := lock.RLL(orig, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(Format(l.Circuit))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumKeys() != 8 {
		t.Fatalf("keys lost: %d", back.NumKeys())
	}
	for trial := 0; trial < 50; trial++ {
		pi := orig.RandomInputs(rng)
		a := l.Circuit.Eval(pi, l.Key, nil)
		b := back.Eval(pi, l.Key, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("locked round-trip mismatch")
			}
		}
	}
}

func TestWriteMuxLowering(t *testing.T) {
	c := circuit.New("muxer")
	s := c.AddInput("s")
	a := c.AddInput("a")
	b := c.AddInput("b")
	m := c.AddGate(circuit.Mux, "m", s, a, b)
	c.AddOutput(m, "y")
	back, err := ParseString(Format(c))
	if err != nil {
		t.Fatalf("%v\n%s", err, Format(c))
	}
	for mval := 0; mval < 8; mval++ {
		pi := []bool{mval&1 == 1, mval&2 == 2, mval&4 == 4}
		if c.Eval(pi, nil, nil)[0] != back.Eval(pi, nil, nil)[0] {
			t.Fatalf("mux lowering wrong at %v", pi)
		}
	}
}

func TestWriteConstants(t *testing.T) {
	c := circuit.New("k")
	c.AddInput("a")
	z := c.AddGate(circuit.Const0, "z")
	o := c.AddGate(circuit.Const1, "o")
	g := c.AddGate(circuit.Nor, "g", z, o)
	c.AddOutput(g, "y")
	back, err := ParseString(Format(c))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Eval([]bool{false}, nil, nil)[0]; got != false {
		t.Errorf("NOR(0,1) = %v", got)
	}
}

func TestWriteSanitizesNames(t *testing.T) {
	c := circuit.New("weird name!")
	a := c.AddInput("in[0]")
	g := c.AddGate(circuit.Not, "3bad.name", a)
	c.AddOutput(g, "out-1")
	text := Format(c)
	if strings.ContainsAny(text, "[].!-") {
		t.Errorf("unsanitised identifiers in:\n%s", text)
	}
	if _, err := ParseString(text); err != nil {
		t.Fatalf("sanitised output unparsable: %v\n%s", err, text)
	}
}

// TestCrossFormatAgreement: four circuits agree on every primary-input
// and key assignment: a small circuit, its .bench round trip, its
// Verilog round trip, and .bench → Verilog → .bench. The circuits have
// every gate type (MUX, which the Verilog writer lowers, included),
// both constants and key inputs, and are locked under every scheme of
// internal/lock, at up to 16 input and key bits. Key bit i stays key
// bit i, named keyinput<i>.
func TestCrossFormatAgreement(t *testing.T) {
	lockers := []struct {
		name string
		mk   func(*circuit.Circuit, *rand.Rand) (*lock.Locked, error)
	}{
		{"RLL", func(c *circuit.Circuit, r *rand.Rand) (*lock.Locked, error) { return lock.RLL(c, 6, r) }},
		{"RLL-deep", func(c *circuit.Circuit, r *rand.Rand) (*lock.Locked, error) { return lock.RLLDeep(c, 6, r) }},
		{"SLL", func(c *circuit.Circuit, r *rand.Rand) (*lock.Locked, error) { return lock.SLL(c, 6, r) }},
		{"SFLL-HD0", func(c *circuit.Circuit, r *rand.Rand) (*lock.Locked, error) { return lock.SFLLHD(c, 6, 0, r) }},
		{"SFLL-HD2", func(c *circuit.Circuit, r *rand.Rand) (*lock.Locked, error) { return lock.SFLLHD(c, 6, 2, r) }},
		{"AntiSAT", func(c *circuit.Circuit, r *rand.Rand) (*lock.Locked, error) { return lock.AntiSAT(c, 8, r) }},
		{"SARLock", func(c *circuit.Circuit, r *rand.Rand) (*lock.Locked, error) { return lock.SARLock(c, 6, r) }},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprintf("seed%d/keyed", seed), func(t *testing.T) {
			checkFormatsAgree(t, smallCircuit(rng, 6, 4))
		})
		orig := smallCircuit(rng, 8, 0)
		for _, lk := range lockers {
			t.Run(fmt.Sprintf("seed%d/%s", seed, lk.name), func(t *testing.T) {
				l, err := lk.mk(orig, rng)
				if err != nil {
					t.Fatal(err)
				}
				checkFormatsAgree(t, l.Circuit)
			})
		}
	}
}

// smallCircuit draws a circuit on nIn primary and nKey key inputs with
// both constants and two gates of every logic type, each reading
// earlier signals.
func smallCircuit(rng *rand.Rand, nIn, nKey int) *circuit.Circuit {
	c := circuit.New("small")
	for i := 0; i < nIn; i++ {
		c.AddInput(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < nKey; i++ {
		c.AddKey("")
	}
	c.AddGate(circuit.Const0, "zero")
	c.AddGate(circuit.Const1, "one")
	for i := 0; i < 2*int(circuit.Mux-circuit.Buf+1); i++ {
		ty := circuit.Buf + circuit.GateType(i/2)
		fan := make([]int, ty.MinFanin())
		if ty.MaxFanin() < 0 {
			fan = append(fan, 0, 0)
		}
		for j := range fan {
			fan[j] = rng.Intn(len(c.Gates))
		}
		c.AddGate(ty, fmt.Sprintf("g%d", i), fan...)
	}
	for i := 1; i <= 4; i++ {
		c.AddOutput(len(c.Gates)-i, "")
	}
	return c
}

func checkFormatsAgree(t *testing.T, orig *circuit.Circuit) {
	t.Helper()
	parse := func(read func(string) (*circuit.Circuit, error), text string) *circuit.Circuit {
		t.Helper()
		c, err := read(text)
		if err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
		return c
	}
	viaBench := parse(bench.ParseString, bench.Format(orig))
	viaVerilog := parse(ParseString, Format(orig))
	viaBoth := parse(bench.ParseString, bench.Format(parse(ParseString, Format(viaBench))))
	want := truthTable(orig)
	for _, rt := range []struct {
		name string
		c    *circuit.Circuit
	}{{".bench", viaBench}, {"Verilog", viaVerilog}, {".bench → Verilog → .bench", viaBoth}} {
		c := rt.c
		if c.NumPIs() != orig.NumPIs() || c.NumKeys() != orig.NumKeys() || c.NumPOs() != orig.NumPOs() {
			t.Fatalf("%s round trip: interface %d/%d/%d, want %d/%d/%d", rt.name,
				c.NumPIs(), c.NumKeys(), c.NumPOs(), orig.NumPIs(), orig.NumKeys(), orig.NumPOs())
		}
		for i, id := range c.Keys {
			if name := c.Gates[id].Name; name != fmt.Sprintf("keyinput%d", i) {
				t.Errorf("%s round trip: key bit %d is %q", rt.name, i, name)
			}
		}
		got := truthTable(c)
		for o := range want {
			for w := range want[o] {
				if got[o][w] != want[o][w] {
					t.Fatalf("%s round trip: output %d differs on assignments %d..%d", rt.name, o, 64*w, 64*w+63)
				}
			}
		}
	}
}

// truthTable evaluates every output on every assignment at once, 64 to
// a word: bit m%64 of word m/64 is the output under the assignment
// whose bit i is primary input i, and bit NumPIs+j key bit j.
func truthTable(c *circuit.Circuit) [][]uint64 {
	lanes := [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}
	vars := append(append([]int(nil), c.PIs...), c.Keys...)
	words := 1 << max(0, len(vars)-6)
	val := make([][]uint64, len(c.Gates))
	for v, id := range vars {
		val[id] = make([]uint64, words)
		for w := range val[id] {
			switch {
			case v < 6:
				val[id][w] = lanes[v]
			case w>>(v-6)&1 == 1:
				val[id][w] = ^uint64(0)
			}
		}
	}
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type == circuit.Input || g.Type == circuit.Key {
			continue
		}
		val[id] = make([]uint64, words)
		for w := range val[id] {
			in := func(k int) uint64 { return val[g.Fanin[k]][w] }
			var x uint64
			switch g.Type {
			case circuit.Const1:
				x = ^uint64(0)
			case circuit.Buf, circuit.Not:
				x = in(0)
			case circuit.Mux:
				x = ^in(0)&in(1) | in(0)&in(2)
			case circuit.And, circuit.Nand:
				x = ^uint64(0)
				for k := range g.Fanin {
					x &= in(k)
				}
			case circuit.Or, circuit.Nor:
				for k := range g.Fanin {
					x |= in(k)
				}
			case circuit.Xor, circuit.Xnor:
				for k := range g.Fanin {
					x ^= in(k)
				}
			}
			switch g.Type {
			case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
				x = ^x
			}
			val[id][w] = x
		}
	}
	out := make([][]uint64, len(c.POs))
	for o, id := range c.POs {
		out[o] = val[id]
	}
	return out
}

// TestParseLastFirstChain: a 100,000-gate NOT chain whose gates are
// declared before their drivers builds in linear time. A worklist that
// re-scans the pending gates once per pass took quadratic time on it.
func TestParseLastFirstChain(t *testing.T) {
	const n = 100000
	var sb strings.Builder
	sb.WriteString("module chain (a, y);\n  input a;\n  output y;\n  buf (y, w0);\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "  not (w%d, w%d);\n", i, i+1)
	}
	fmt.Fprintf(&sb, "  not (w%d, a);\nendmodule\n", n-1)
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

func BenchmarkParseC17(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(c17Verilog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormatRandom(b *testing.B) {
	c := gen.Random("f", 20, 500, 10, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Format(c)
	}
}
