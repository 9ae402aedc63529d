package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"statsat/internal/circuit"
)

// Parse reads a .bench netlist. The circuit name is taken from the
// first "# name" comment if present, else left empty. Gates may be
// declared in any order. A DFF becomes scan I/O: its output a pseudo
// primary input, its data input a pseudo primary output named
// "<dff>_scanin".
//
// The front end keeps memory bounded: lines come from a bufio.Scanner
// with a grown token buffer, every signal name is interned exactly
// once, and gate records are packed into flat integer arrays (one
// fanin pool, one record per gate) rather than per-gate string slices.
// On 100k-gate netlists that holds the intermediate to one int32 per
// operand plus one copy of each name.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	p := &parser{sym: map[string]int32{}}
	var name string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			if name == "" {
				c := strings.TrimSpace(string(line[i+1:]))
				if c != "" && !strings.ContainsAny(c, "=(") {
					name = strings.Fields(c)[0]
				}
			}
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if err := p.statement(line, lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %w", err)
	}
	return p.build(name)
}

// gateRec is one packed gate record: the fanin symbols live in the
// parser's shared pool at [off, off+n).
type gateRec struct {
	out  int32
	off  int32
	n    int32
	line int32
	typ  circuit.GateType
	dff  bool
}

type parser struct {
	sym     map[string]int32 // name -> symbol
	names   []string         // symbol -> name (the only string copies)
	defLine []int32          // symbol -> defining line, 0 when undefined
	inputs  []int32          // INPUT() symbols in file order
	outputs []int32          // OUTPUT() symbols in file order
	gates   []gateRec
	fan     []int32 // shared fanin pool
}

// intern returns the symbol for a name, copying the bytes only on
// first sight (map lookups on string(b) do not allocate).
func (p *parser) intern(b []byte) int32 {
	if s, ok := p.sym[string(b)]; ok {
		return s
	}
	s := int32(len(p.names))
	n := string(b)
	p.names = append(p.names, n)
	p.defLine = append(p.defLine, 0)
	p.sym[n] = s
	return s
}

func (p *parser) define(sym int32, lineNo int) error {
	if p.defLine[sym] != 0 {
		return &ParseError{lineNo, fmt.Sprintf("signal %q defined twice", p.names[sym])}
	}
	p.defLine[sym] = int32(lineNo)
	return nil
}

// hasKeywordPrefix reports whether line starts with the ASCII keyword
// case-insensitively (the keyword itself must be upper-case).
func hasKeywordPrefix(line []byte, kw string) bool {
	if len(line) < len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		c := line[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	return true
}

func (p *parser) statement(line []byte, lineNo int) error {
	switch {
	case hasKeywordPrefix(line, "INPUT("):
		arg, err := parenArg(line, lineNo)
		if err != nil {
			return err
		}
		sym := p.intern(arg)
		if err := p.define(sym, lineNo); err != nil {
			return err
		}
		p.inputs = append(p.inputs, sym)
		return nil
	case hasKeywordPrefix(line, "OUTPUT("):
		arg, err := parenArg(line, lineNo)
		if err != nil {
			return err
		}
		p.outputs = append(p.outputs, p.intern(arg))
		return nil
	}
	return p.assignment(line, lineNo)
}

func (p *parser) assignment(line []byte, lineNo int) error {
	eq := bytes.IndexByte(line, '=')
	if eq < 0 {
		return &ParseError{lineNo, fmt.Sprintf("unrecognised statement %q", line)}
	}
	target := bytes.TrimSpace(line[:eq])
	if len(target) == 0 {
		return &ParseError{lineNo, "assignment with empty target"}
	}
	rhs := bytes.TrimSpace(line[eq+1:])
	open := bytes.IndexByte(rhs, '(')
	close := bytes.LastIndexByte(rhs, ')')
	if open < 0 || close < open {
		return &ParseError{lineNo, fmt.Sprintf("malformed gate expression %q", rhs)}
	}

	// Keywords are short: upper-case into a stack buffer, no alloc.
	var kwBuf [8]byte
	kwRaw := bytes.TrimSpace(rhs[:open])
	if len(kwRaw) > len(kwBuf) {
		return &ParseError{lineNo, fmt.Sprintf("unknown gate keyword %q", kwRaw)}
	}
	for i, c := range kwRaw {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		kwBuf[i] = c
	}
	kw := string(kwBuf[:len(kwRaw)])

	g := gateRec{
		out:  p.intern(target),
		off:  int32(len(p.fan)),
		line: int32(lineNo),
	}
	if err := p.define(g.out, lineNo); err != nil {
		return err
	}

	args := rhs[open+1 : close]
	if kw == dffKeyword {
		arg := bytes.TrimSpace(args)
		if len(arg) == 0 || bytes.IndexByte(arg, ',') >= 0 {
			return &ParseError{lineNo, "DFF takes exactly one data input"}
		}
		g.dff = true
		g.n = 1
		p.fan = append(p.fan, p.intern(arg))
		p.gates = append(p.gates, g)
		return nil
	}
	typ, ok := gateKeywords[kw]
	if !ok {
		return &ParseError{lineNo, fmt.Sprintf("unknown gate keyword %q", kwRaw)}
	}
	g.typ = typ

	// Split operands on commas in place (same semantics as
	// strings.Split: a trailing or doubled comma is an empty operand).
	for {
		var tok []byte
		last := false
		if i := bytes.IndexByte(args, ','); i >= 0 {
			tok, args = args[:i], args[i+1:]
		} else {
			tok, last = args, true
		}
		tok = bytes.TrimSpace(tok)
		if len(tok) == 0 {
			return &ParseError{lineNo, "empty operand"}
		}
		p.fan = append(p.fan, p.intern(tok))
		g.n++
		if last {
			break
		}
	}
	if n, min, max := int(g.n), typ.MinFanin(), typ.MaxFanin(); n < min || (max >= 0 && n > max) {
		return &ParseError{lineNo, fmt.Sprintf("%s with %d operands", kw, n)}
	}
	p.gates = append(p.gates, g)
	return nil
}

func parenArg(line []byte, lineNo int) ([]byte, error) {
	open := bytes.IndexByte(line, '(')
	close := bytes.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return nil, &ParseError{lineNo, "malformed parenthesised statement"}
	}
	arg := bytes.TrimSpace(line[open+1 : close])
	if len(arg) == 0 {
		return nil, &ParseError{lineNo, "empty signal name"}
	}
	return arg, nil
}

// build assembles the circuit from the packed records: primary inputs
// first, then key inputs stable-sorted by numeric suffix, then DFF
// outputs as scan-chain pseudo inputs; out-of-order gate declarations
// are resolved with a multi-pass worklist over gate indices, and DFF
// data inputs become pseudo outputs after the declared ones.
func (p *parser) build(name string) (*circuit.Circuit, error) {
	c := circuit.New(name)
	id := make([]int32, len(p.names))
	for i := range id {
		id[i] = -1
	}

	var pis, keys []int32
	for _, sym := range p.inputs {
		if strings.HasPrefix(p.names[sym], KeyPrefix) {
			keys = append(keys, sym)
		} else {
			pis = append(pis, sym)
		}
	}
	sort.SliceStable(keys, func(i, j int) bool {
		return keySuffix(p.names[keys[i]]) < keySuffix(p.names[keys[j]])
	})
	for _, sym := range pis {
		id[sym] = int32(c.AddInput(p.names[sym]))
	}
	for _, sym := range keys {
		id[sym] = int32(c.AddKey(p.names[sym]))
	}
	for gi := range p.gates {
		if g := &p.gates[gi]; g.dff {
			id[g.out] = int32(c.AddInput(p.names[g.out]))
		}
	}

	pending := make([]int32, 0, len(p.gates))
	for gi := range p.gates {
		if !p.gates[gi].dff {
			pending = append(pending, int32(gi))
		}
	}
	var fanBuf []int
	for len(pending) > 0 {
		progressed := false
		next := pending[:0]
		for _, gi := range pending {
			g := &p.gates[gi]
			ready := true
			for _, sym := range p.fan[g.off : g.off+g.n] {
				if id[sym] < 0 {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, gi)
				continue
			}
			if cap(fanBuf) < int(g.n) {
				fanBuf = make([]int, g.n)
			}
			fan := fanBuf[:g.n]
			for i, sym := range p.fan[g.off : g.off+g.n] {
				fan[i] = int(id[sym])
			}
			id[g.out] = int32(c.AddGate(g.typ, p.names[g.out], fan...))
			progressed = true
		}
		if !progressed {
			g := &p.gates[next[0]]
			for _, sym := range p.fan[g.off : g.off+g.n] {
				if id[sym] < 0 && p.defLine[sym] == 0 {
					return nil, &ParseError{int(g.line), fmt.Sprintf("gate %q uses undefined signal %q", p.names[g.out], p.names[sym])}
				}
			}
			return nil, &ParseError{int(g.line), fmt.Sprintf("cyclic definition involving %q", p.names[g.out])}
		}
		pending = next
	}

	for _, sym := range p.outputs {
		if id[sym] < 0 {
			return nil, &ParseError{0, fmt.Sprintf("OUTPUT(%s) never defined", p.names[sym])}
		}
		c.AddOutput(int(id[sym]), p.names[sym])
	}
	for gi := range p.gates {
		g := &p.gates[gi]
		if !g.dff {
			continue
		}
		data := p.fan[g.off]
		if id[data] < 0 {
			return nil, &ParseError{int(g.line), fmt.Sprintf("DFF %q data input %q never defined", p.names[g.out], p.names[data])}
		}
		c.AddOutput(int(id[data]), p.names[g.out]+"_scanin")
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return c, nil
}
