package bench

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// streamParityCases are netlists Parse must read identically however
// the bytes arrive: comments, key inputs out of numeric order, forward
// references, DFF scan conversion, aliases and mixed case.
var streamParityCases = []struct {
	name string
	src  string
}{
	{"c17", c17Bench},
	{"keyinputs unsorted", `# lockme
INPUT(a)
INPUT(keyinput10)
INPUT(keyinput2)
INPUT(b)
OUTPUT(y)
t = XOR(a, keyinput2)
u = XNOR(t, keyinput10)
y = AND(u, b)
`},
	{"forward refs", `INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(m, n)
m = OR(a, n)
n = NOT(b)
`},
	{"dff scan chain", `INPUT(a)
OUTPUT(y)
s = DFF(d)
d = XOR(a, s)
y = NOT(s)
`},
	{"aliases and case", `INPUT(a)
INPUT(b)
OUTPUT(y)
u = buff(a)
v = inv(b)
y = nand(u, v)
`},
	{"mux", `INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
y = MUX(s, a, b)
`},
}

// TestParseStreamingMatchesParse checks that a reader handing Parse one
// byte per Read yields a structurally identical circuit — same gate
// list, same PI/key/PO layout, same name — to a whole-string parse, for
// every parity case. Every statement then straddles scanner refills.
func TestParseStreamingMatchesParse(t *testing.T) {
	for _, tc := range streamParityCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ParseString(tc.src)
			if err != nil {
				t.Fatalf("ParseString: %v", err)
			}
			got, err := Parse(iotest.OneByteReader(strings.NewReader(tc.src)))
			if err != nil {
				t.Fatalf("Parse, one byte per read: %v", err)
			}
			if Format(got) != Format(want) {
				t.Errorf("circuits differ:\n--- whole string ---\n%s--- one byte per read ---\n%s", Format(want), Format(got))
			}
			if got.Name != want.Name {
				t.Errorf("circuit name %q, want %q", got.Name, want.Name)
			}
		})
	}
}

// TestParseStreamingErrors re-runs the Parse error table one byte per
// read: same rejections, same line numbers.
func TestParseStreamingErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(iotest.OneByteReader(strings.NewReader(tc.src)))
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

// TestParseStreamingRandomRoundTrip writes generated circuits into a
// pipe and parses them from the other end while they are written.
// Write flushes in buffer-sized chunks that cut statements mid-line, so
// the parser sees a netlist arriving in pieces. The result must match
// the original on sampled inputs and keys.
func TestParseStreamingRandomRoundTrip(t *testing.T) {
	for seed := int64(9); seed < 14; seed++ {
		c := randomCircuit(seed, 12, 400, 4, 4)
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(Write(pw, c)) }()
		got, err := Parse(pr)
		pr.Close() // unblocks the writer if Parse stopped early
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, Format(c))
		}
		if got.NumPIs() != c.NumPIs() || got.NumKeys() != c.NumKeys() || got.NumPOs() != c.NumPOs() {
			t.Fatalf("seed %d: interface mismatch", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		for sample := 0; sample < 32; sample++ {
			x := c.RandomInputs(rng)
			key := make([]bool, c.NumKeys())
			for i := range key {
				key[i] = rng.Intn(2) == 1
			}
			want := c.Eval(x, key, nil)
			have := got.Eval(x, key, nil)
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("seed %d: output %d differs on x=%v key=%v", seed, i, x, key)
				}
			}
		}
	}
}
