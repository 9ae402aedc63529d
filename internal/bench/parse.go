package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"statsat/internal/circuit"
)

// Parse reads a .bench netlist. The circuit name is taken from the
// first "# name" comment if present, else left empty. Gates may be
// declared in any order. A DFF becomes scan I/O: its output a pseudo
// primary input, its data input a pseudo primary output named
// "<dff>_scanin".
//
// Parse tokenizes and declares; a circuit.Builder resolves the names
// and builds the circuit. Lines come from a bufio.Scanner with a grown
// token buffer, and each statement is split in place, so the front end
// holds no more than the builder's packed records.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	p := &parser{b: circuit.NewBuilder()}
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
			return nil, lineError(err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %w", err)
	}
	c, err := p.b.Build(name)
	if err != nil {
		return nil, lineError(err)
	}
	return c, nil
}

// lineError renders a Builder error at the .bench line it carries.
func lineError(err error) error {
	var be *circuit.BuildError
	if errors.As(err, &be) {
		return &ParseError{be.Pos, be.Msg}
	}
	return err
}

type parser struct {
	b   *circuit.Builder
	fan []int32 // the current gate's operand symbols
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
		return p.b.Input(p.b.Sym(arg), lineNo)
	case hasKeywordPrefix(line, "OUTPUT("):
		arg, err := parenArg(line, lineNo)
		if err != nil {
			return err
		}
		p.b.Output(p.b.Sym(arg))
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

	args := rhs[open+1 : close]
	if kw == dffKeyword {
		arg := bytes.TrimSpace(args)
		if len(arg) == 0 || bytes.IndexByte(arg, ',') >= 0 {
			return &ParseError{lineNo, "DFF takes exactly one data input"}
		}
		return p.b.DFF(p.b.Sym(target), p.b.Sym(arg), lineNo)
	}
	typ, ok := gateKeywords[kw]
	if !ok {
		return &ParseError{lineNo, fmt.Sprintf("unknown gate keyword %q", kwRaw)}
	}

	// Split operands on commas in place (same semantics as
	// strings.Split: a trailing or doubled comma is an empty operand).
	p.fan = p.fan[:0]
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
		p.fan = append(p.fan, p.b.Sym(tok))
		if last {
			break
		}
	}
	if n, min, max := len(p.fan), typ.MinFanin(), typ.MaxFanin(); n < min || (max >= 0 && n > max) {
		return &ParseError{lineNo, fmt.Sprintf("%s with %d operands", kw, n)}
	}
	return p.b.Gate(p.b.Sym(target), typ, p.fan, lineNo)
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
