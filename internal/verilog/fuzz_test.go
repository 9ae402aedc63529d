package verilog

import (
	"strings"
	"testing"

	"statsat/internal/bench"
)

// FuzzParse exercises the structural-Verilog parser for panics and
// invariant violations on arbitrary input: an accepted module must
// validate, survive a Format/Parse round trip, and its .bench rendering
// must parse back (unless bench.Write refuses it: .bench derives
// constants from an input, so a module with a constant and no input has
// none). Run `go test -fuzz=FuzzParse ./internal/verilog`
// to fuzz beyond the seeds (the seed corpus alone runs in every `go test`).
func FuzzParse(f *testing.F) {
	seeds := []string{
		c17Verilog,
		"module m(a,y); input a; output y; not g(y,a); endmodule",
		"module m(a,y); input a; output y; assign y = 1'b0; endmodule",
		"module m(); endmodule",
		"module m(a,y); /* c */ input a; // x\n output y; buf g(y,a); endmodule",
		"module",
		"and g(y,a)",
		"module m(a,keyinput0,y); input a, keyinput0; output y; xor g(y,a,keyinput0); endmodule",
		// Gates before their drivers, outputs before everything.
		"module m(a,b,y); output y; and g3(y, w1, w2); not g1(w1, w3); buf g2(w2, b); or g0(w3, a, b); input a, b; endmodule",
		// Constants, in assigns and as gate operands.
		"module m(a,y,z); input a; output y, z; xor g(y, a, 1'b1, 1'b0); assign z = 1'b1; endmodule",
		// Key inputs out of numeric order, and one without a number.
		"module m(a,keyinput10,keyinput2,keyinputx,y); input keyinput10, a, keyinputx; input keyinput2; output y;\n" +
			"xnor g1(t, a, keyinput2); xor g2(u, t, keyinput10); and g3(y, u, keyinputx); endmodule",
		// A repeated output, and a wire declared but never used.
		"module m(a,y); input a; output y; output y; wire w; not g(y,a); endmodule",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, tc := range parseErrorCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src)
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("parser returned invalid circuit: %v", verr)
		}
		if _, rerr := ParseString(Format(c)); rerr != nil {
			t.Fatalf("round-trip failed: %v\n%s", rerr, Format(c))
		}
		var text strings.Builder
		if bench.Write(&text, c) != nil {
			return
		}
		if _, berr := bench.ParseString(text.String()); berr != nil {
			t.Fatalf(".bench rendering does not parse: %v\n%s", berr, text.String())
		}
	})
}
