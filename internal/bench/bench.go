// Package bench reads and writes combinational netlists in the ISCAS
// .bench format, the exchange format used by the original SAT-attack
// tooling the paper builds on.
//
// Grammar (one statement per line, '#' starts a comment):
//
//	INPUT(name)
//	OUTPUT(name)
//	name = GATE(op1, op2, ...)
//
// Supported gate keywords: BUF/BUFF, NOT/INV, AND, NAND, OR, NOR, XOR,
// XNOR, MUX (and DFF, see Parse). Keywords match case-insensitively
// under ASCII folding only: "inv" is INV, but a non-ASCII letter never
// folds into a keyword. Inputs whose names begin with
// circuit.KeyPrefix ("keyinput") are key inputs, ordered by their
// number, so key bit i is keyinput<i>.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"statsat/internal/circuit"
)

// ParseError describes a syntax or semantic problem in a .bench file.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("bench: line %d: %s", e.Line, e.Msg)
}

var gateKeywords = map[string]circuit.GateType{
	"BUF":  circuit.Buf,
	"BUFF": circuit.Buf,
	"NOT":  circuit.Not,
	"INV":  circuit.Not,
	"AND":  circuit.And,
	"NAND": circuit.Nand,
	"OR":   circuit.Or,
	"NOR":  circuit.Nor,
	"XOR":  circuit.Xor,
	"XNOR": circuit.Xnor,
	"MUX":  circuit.Mux,
}

// dffKeyword marks state elements in ISCAS89-style netlists. Parse
// converts them to the standard scan-chain combinational model: the
// flip-flop's output becomes a pseudo primary input, its data input a
// pseudo primary output — the full-scan access every oracle-guided
// attack paper (including this one) assumes.
const dffKeyword = "DFF"

// Keyword returns the .bench keyword for a gate type.
func Keyword(t circuit.GateType) (string, bool) {
	switch t {
	case circuit.Buf:
		return "BUFF", true
	case circuit.Not:
		return "NOT", true
	case circuit.And:
		return "AND", true
	case circuit.Nand:
		return "NAND", true
	case circuit.Or:
		return "OR", true
	case circuit.Nor:
		return "NOR", true
	case circuit.Xor:
		return "XOR", true
	case circuit.Xnor:
		return "XNOR", true
	case circuit.Mux:
		return "MUX", true
	}
	return "", false
}

// ParseString is Parse over a string.
func ParseString(s string) (*circuit.Circuit, error) {
	return Parse(strings.NewReader(s))
}

// Write serialises a circuit to .bench. Gates without names, or with
// names .bench cannot carry (holding any of "#(),=", a line break or
// edge space), get synthetic ones (n<ID>); key inputs are renamed
// keyinput<i> to keep the convention round-trippable.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	names := make([]string, len(c.Gates))
	used := map[string]bool{}
	for i, kid := range c.Keys {
		names[kid] = fmt.Sprintf("%s%d", circuit.KeyPrefix, i)
		used[names[kid]] = true
	}
	for id := range c.Gates {
		if names[id] != "" {
			continue
		}
		n := c.Gates[id].Name
		if n == "" || used[n] || strings.ContainsAny(n, "#(),=\r\n") || strings.TrimSpace(n) != n ||
			(c.Gates[id].Type != circuit.Key && strings.HasPrefix(n, circuit.KeyPrefix)) {
			n = fmt.Sprintf("n%d", id)
			for used[n] {
				n = "x" + n
			}
		}
		names[id] = n
		used[n] = true
	}

	if c.Name != "" {
		fmt.Fprintf(bw, "# %s\n", c.Name)
	}
	fmt.Fprintf(bw, "# %d inputs, %d keys, %d outputs, %d gates\n",
		len(c.PIs), len(c.Keys), len(c.POs), c.NumLogicGates())
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", names[id])
	}
	for _, id := range c.Keys {
		fmt.Fprintf(bw, "INPUT(%s)\n", names[id])
	}
	for _, id := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", names[id])
	}
	// .bench has no constant literal: a constant is x XOR x, or x XNOR
	// x, on an input x.
	x := ""
	if len(c.PIs) > 0 {
		x = names[c.PIs[0]]
	} else if len(c.Keys) > 0 {
		x = names[c.Keys[0]]
	}
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type.IsInputType() {
			if g.Type != circuit.Const0 && g.Type != circuit.Const1 {
				continue
			}
			if x == "" {
				return fmt.Errorf("bench: cannot serialise constant %q in a circuit without inputs", names[id])
			}
			kw := "XOR"
			if g.Type == circuit.Const1 {
				kw = "XNOR"
			}
			fmt.Fprintf(bw, "%s = %s(%s, %s)\n", names[id], kw, x, x)
			continue
		}
		kw, ok := Keyword(g.Type)
		if !ok {
			return fmt.Errorf("bench: cannot serialise gate type %v", g.Type)
		}
		ops := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			ops[i] = names[f]
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", names[id], kw, strings.Join(ops, ", "))
	}
	return bw.Flush()
}

// Format renders the circuit as a .bench string.
func Format(c *circuit.Circuit) string {
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		return "# error: " + err.Error()
	}
	return sb.String()
}
