// Package verilog reads and writes gate-level structural Verilog — the
// second common exchange format for the ISCAS/ITC benchmark suites
// (alongside .bench). Only the structural subset used by such netlists
// is supported:
//
//	module name (port, ...);
//	  input a, b;            // "keyinput*" inputs become key inputs
//	  output y;
//	  wire w1, w2;
//	  and g1 (out, in1, in2, ...);
//	  nand|or|nor|xor|xnor|not|buf ...
//	  assign y = w1;         // treated as a BUF
//	endmodule
//
// Comments (// and /* */), multi-line statements, statements in any
// order and 1'b0/1'b1 constants (in assigns and as gate operands) are
// handled. Behavioural constructs are rejected with a positioned error.
package verilog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"statsat/internal/circuit"
)

// ParseError reports a syntax/semantic problem with its statement.
type ParseError struct {
	Stmt string
	Msg  string
}

func (e *ParseError) Error() string {
	s := e.Stmt
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return fmt.Sprintf("verilog: %s (in %q)", e.Msg, s)
}

var gateKeywords = map[string]circuit.GateType{
	"and":  circuit.And,
	"nand": circuit.Nand,
	"or":   circuit.Or,
	"nor":  circuit.Nor,
	"xor":  circuit.Xor,
	"xnor": circuit.Xnor,
	"not":  circuit.Not,
	"buf":  circuit.Buf,
}

// Parse reads one structural Verilog module into a circuit.
// Statements may come in any order: Parse tokenizes them and declares
// each into a circuit.Builder, which resolves the names and builds the
// circuit. A wire declaration only checks its names; a signal is
// defined by an input declaration, a gate or an assign, once.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	stmts, name, err := tokenizeStatements(r)
	if err != nil {
		return nil, err
	}
	// stmtError renders a Builder error at the statement it carries.
	stmtError := func(err error) error {
		var be *circuit.BuildError
		if !errors.As(err, &be) {
			return err
		}
		st := "endmodule"
		if be.Pos > 0 {
			st = stmts[be.Pos-1]
		}
		return &ParseError{st, be.Msg}
	}
	p := &parser{b: circuit.NewBuilder()}
	for i, st := range stmts {
		if err := p.statement(st, i+1); err != nil {
			return nil, stmtError(err)
		}
	}
	c, err := p.b.Build(name)
	if err != nil {
		return nil, stmtError(err)
	}
	return c, nil
}

type parser struct {
	b   *circuit.Builder
	fan []int32 // the current gate's operand symbols
}

// statement declares st, the pos'th statement of the module.
func (p *parser) statement(st string, pos int) error {
	kw, rest, _ := strings.Cut(st, " ")
	switch kw {
	case "input", "output", "wire":
		for _, n := range splitNames(rest) {
			if n == "" {
				return &ParseError{st, "empty identifier"}
			}
			if kw == "input" {
				if err := p.b.Input(p.b.Sym([]byte(n)), pos); err != nil {
					return err
				}
			} else if kw == "output" {
				p.b.Output(p.b.Sym([]byte(n)))
			}
		}
		return nil
	case "assign":
		// "assign y = x" and "assign y = 1'b0/1'b1", the forms
		// ISCAS-converted netlists use, are buffers.
		lhs, rhs, ok := strings.Cut(rest, "=")
		lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
		switch {
		case !ok:
			return &ParseError{st, "assign without '='"}
		case lhs == "" || rhs == "":
			return &ParseError{st, "malformed assign"}
		case strings.ContainsAny(rhs, "&|^~?("):
			return &ParseError{st, "behavioural assign expressions are not supported"}
		}
		return p.gate(circuit.Buf, []string{lhs, rhs}, pos)
	}
	ty, ok := gateKeywords[kw]
	if !ok {
		return &ParseError{st, fmt.Sprintf("unsupported construct %q", kw)}
	}
	// "and g1 (out, in1, in2, ...)" or "and (out, in1, ...)".
	open, close := strings.IndexByte(st, '('), strings.LastIndexByte(st, ')')
	if open < 0 || close < open {
		return &ParseError{st, "malformed gate instantiation"}
	}
	ports := splitNames(st[open+1 : close])
	if len(ports) < 2 {
		return &ParseError{st, "gate needs an output and at least one input"}
	}
	if slices.Contains(ports, "") {
		return &ParseError{st, "empty port"}
	}
	if n, min, max := len(ports)-1, ty.MinFanin(), ty.MaxFanin(); n < min || (max >= 0 && n > max) {
		return &ParseError{st, fmt.Sprintf("%s with %d inputs", kw, n)}
	}
	return p.gate(ty, ports, pos)
}

// gate declares ports[0] = ty(ports[1:]...); the literals 1'b0 and
// 1'b1 are the constants.
func (p *parser) gate(ty circuit.GateType, ports []string, pos int) error {
	p.fan = p.fan[:0]
	for _, a := range ports[1:] {
		switch a {
		case "1'b0":
			p.fan = append(p.fan, p.b.Const(circuit.Const0))
		case "1'b1":
			p.fan = append(p.fan, p.b.Const(circuit.Const1))
		default:
			p.fan = append(p.fan, p.b.Sym([]byte(a)))
		}
	}
	return p.b.Gate(p.b.Sym([]byte(ports[0])), ty, p.fan, pos)
}

// ParseString is Parse over a string.
func ParseString(s string) (*circuit.Circuit, error) {
	return Parse(strings.NewReader(s))
}

// tokenizeStatements strips comments, joins statements across lines
// (terminated by ';'), extracts the module name and drops the module
// header / endmodule lines.
func tokenizeStatements(r io.Reader) ([]string, string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var sb strings.Builder
	inBlockComment := false
	for sc.Scan() {
		line := sc.Text()
		for {
			if inBlockComment {
				end := strings.Index(line, "*/")
				if end < 0 {
					line = ""
					break
				}
				line = line[end+2:]
				inBlockComment = false
			}
			start := strings.Index(line, "/*")
			if start < 0 {
				break
			}
			rest := line[start+2:]
			line = line[:start]
			if end := strings.Index(rest, "*/"); end >= 0 {
				line += " " + rest[end+2:]
				continue
			}
			inBlockComment = true
			break
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, "", fmt.Errorf("verilog: read: %w", err)
	}
	text := sb.String()

	var stmts []string
	name := ""
	for _, raw := range strings.Split(text, ";") {
		st := strings.Join(strings.Fields(raw), " ")
		if st == "" {
			continue
		}
		st = strings.TrimPrefix(st, "endmodule")
		st = strings.TrimSpace(st)
		if st == "" {
			continue
		}
		if strings.HasPrefix(st, "module ") {
			rest := strings.TrimSpace(st[len("module "):])
			if i := strings.IndexAny(rest, " ("); i >= 0 {
				name = rest[:i]
			} else {
				name = rest
			}
			continue
		}
		stmts = append(stmts, st)
	}
	return stmts, name, nil
}

// splitNames parses "a, b , c".
func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(n))
	}
	return out
}

// Write serialises a circuit as a structural Verilog module. MUX gates
// are lowered to and/or/not primitives (structural Verilog has no mux
// primitive); constants become 1'b0 / 1'b1 assigns.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	names := make([]string, len(c.Gates))
	used := map[string]bool{}
	for i, kid := range c.Keys {
		names[kid] = fmt.Sprintf("%s%d", circuit.KeyPrefix, i)
		used[names[kid]] = true
	}
	sanitize := func(n string) string {
		var sb strings.Builder
		for _, r := range n {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
				sb.WriteRune(r)
			default:
				sb.WriteByte('_')
			}
		}
		s := sb.String()
		if s == "" || (s[0] >= '0' && s[0] <= '9') {
			s = "n" + s
		}
		return s
	}
	for id := range c.Gates {
		if names[id] != "" {
			continue
		}
		n := sanitize(c.Gates[id].Name)
		if n == "" || n == "n" || used[n] || (c.Gates[id].Type != circuit.Key && strings.HasPrefix(n, circuit.KeyPrefix)) {
			n = fmt.Sprintf("g%d", id)
			for used[n] {
				n = "x" + n
			}
		}
		names[id] = n
		used[n] = true
	}
	// Output ports must not collide with internal wire names: emit
	// dedicated port wires driven by assigns.
	outPorts := make([]string, len(c.POs))
	for i := range c.POs {
		p := sanitize(c.OutputName(i))
		if p == "" || used[p] {
			p = fmt.Sprintf("po%d", i)
			for used[p] {
				p = "x" + p
			}
		}
		outPorts[i] = p
		used[p] = true
	}

	modName := sanitize(c.Name)
	if modName == "" || modName == "n" {
		modName = "top"
	}
	var ports []string
	for _, id := range c.PIs {
		ports = append(ports, names[id])
	}
	for _, id := range c.Keys {
		ports = append(ports, names[id])
	}
	ports = append(ports, outPorts...)
	fmt.Fprintf(bw, "module %s (%s);\n", modName, strings.Join(ports, ", "))
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "  input %s;\n", names[id])
	}
	for _, id := range c.Keys {
		fmt.Fprintf(bw, "  input %s;\n", names[id])
	}
	for _, p := range outPorts {
		fmt.Fprintf(bw, "  output %s;\n", p)
	}
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type == circuit.Input || g.Type == circuit.Key {
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", names[id])
	}
	auxCount := 0
	aux := func() string {
		auxCount++
		n := fmt.Sprintf("mx%d", auxCount)
		for used[n] {
			n = "x" + n
		}
		used[n] = true
		fmt.Fprintf(bw, "  wire %s;\n", n)
		return n
	}
	gi := 0
	inst := func(kw, out string, ins ...string) {
		gi++
		fmt.Fprintf(bw, "  %s I%d (%s, %s);\n", kw, gi, out, strings.Join(ins, ", "))
	}
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		ins := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			ins[i] = names[f]
		}
		switch g.Type {
		case circuit.Input, circuit.Key:
		case circuit.Const0:
			fmt.Fprintf(bw, "  assign %s = 1'b0;\n", names[id])
		case circuit.Const1:
			fmt.Fprintf(bw, "  assign %s = 1'b1;\n", names[id])
		case circuit.Buf:
			inst("buf", names[id], ins...)
		case circuit.Not:
			inst("not", names[id], ins...)
		case circuit.And:
			inst("and", names[id], ins...)
		case circuit.Nand:
			inst("nand", names[id], ins...)
		case circuit.Or:
			inst("or", names[id], ins...)
		case circuit.Nor:
			inst("nor", names[id], ins...)
		case circuit.Xor:
			inst("xor", names[id], ins...)
		case circuit.Xnor:
			inst("xnor", names[id], ins...)
		case circuit.Mux:
			// z = (~s & a) | (s & b)
			ns, t1, t2 := aux(), aux(), aux()
			inst("not", ns, ins[0])
			inst("and", t1, ns, ins[1])
			inst("and", t2, ins[0], ins[2])
			inst("or", names[id], t1, t2)
		default:
			return fmt.Errorf("verilog: cannot serialise gate type %v", g.Type)
		}
	}
	for i, po := range c.POs {
		fmt.Fprintf(bw, "  assign %s = %s;\n", outPorts[i], names[po])
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// Format renders the circuit as a Verilog string.
func Format(c *circuit.Circuit) string {
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		return "// error: " + err.Error()
	}
	return sb.String()
}
