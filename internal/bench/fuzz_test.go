package bench

import "testing"

// FuzzParse exercises the .bench parser for panics and invariant
// violations on arbitrary input. The seed corpus covers the statement
// grammar; run `go test -fuzz=FuzzParse ./internal/bench` for a real
// fuzzing session (the seed corpus alone runs in every `go test`).
func FuzzParse(f *testing.F) {
	seeds := []string{
		c17Bench,
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
		"INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n",
		"q = DFF(d)\nd = NOT(q)\nOUTPUT(q)\nINPUT(x)\n",
		"# comment\n\nINPUT(a)\n",
		"y = AND(a, b, c, d)\n",
		"INPUT(a)\nOUTPUT(y)\ny = MUX(a, a, a)\n",
		"p cnf garbage\n",
		"INPUT(é)\nOUTPUT(é)\n",
		"y = NAND(",
		"=(",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Key inputs out of numeric order, forward references, DFF scan
	// conversion, lower-case aliases and a MUX.
	for _, tc := range streamParityCases[1:] { // [0] is c17, seeded above
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src)
		if err != nil {
			return
		}
		// Parsed circuits must validate and survive a write/parse
		// round-trip.
		if verr := c.Validate(); verr != nil {
			t.Fatalf("parser returned invalid circuit: %v", verr)
		}
		if _, rerr := ParseString(Format(c)); rerr != nil {
			t.Fatalf("round-trip failed: %v\n%s", rerr, Format(c))
		}
	})
}
