package circuit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// KeyPrefix marks key inputs by name: the convention of the
// Subramanyan et al. framework and of locked netlists in the wild.
// Both netlist writers name key bit i KeyPrefix+i, and Build orders key
// inputs by that number.
const KeyPrefix = "keyinput"

// keyNumber is the number after KeyPrefix, or 1<<30 (last) for none.
func keyNumber(name string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(name, KeyPrefix))
	if err != nil {
		return 1 << 30
	}
	return n
}

// BuildError is a netlist a Builder cannot build, at the position the
// front end gave the declaration at fault (a .bench line, a Verilog
// statement); Pos 0 is after the last declaration.
type BuildError struct {
	Pos int
	Msg string
}

func (e *BuildError) Error() string { return fmt.Sprintf("position %d: %s", e.Pos, e.Msg) }

// A symbol's driver is a logic gate's index in Builder.gates, or:
const (
	undeclared int32 = -1
	source     int32 = -2 // an input, a DFF output or a constant
)

// gateRec is a packed logic gate; its fanins are fan[off:off+n].
type gateRec struct {
	out, off, n, pos int32
	typ              GateType
}

type dffRec struct{ out, data, pos int32 }

// Builder resolves a netlist's names and builds it: the .bench and
// Verilog front ends declare into it in any order, and Build assembles
// the circuit. Each name is interned once and gates are packed into
// flat records, so a 100k-gate netlist costs one int32 per operand plus
// one copy of each name.
type Builder struct {
	sym          map[string]int32
	names        []string // symbol -> name
	drv          []int32  // symbol -> driver
	inputs, outs []int32  // in declaration order
	gates        []gateRec
	dffs         []dffRec
	fan          []int32
}

// NewBuilder returns an empty Builder. Symbols 0 and 1 are the
// constants; no name reaches them through Sym.
func NewBuilder() *Builder {
	return &Builder{sym: map[string]int32{}, names: []string{"const0", "const1"}, drv: []int32{source, source}}
}

// Sym returns the symbol of a name, copying the bytes only on first
// sight (a map lookup on string(name) does not allocate).
func (b *Builder) Sym(name []byte) int32 {
	if s, ok := b.sym[string(name)]; ok {
		return s
	}
	s, n := int32(len(b.names)), string(name)
	b.names, b.drv = append(b.names, n), append(b.drv, undeclared)
	b.sym[n] = s
	return s
}

// Const returns the symbol of the constant t, Const0 or Const1. Build
// adds it, named const0 or const1, just before the first gate using it.
func (b *Builder) Const(t GateType) int32 { return int32(t - Const0) }

func (b *Builder) define(s, drv int32, pos int) error {
	if b.drv[s] != undeclared {
		return &BuildError{pos, fmt.Sprintf("signal %q defined twice", b.names[s])}
	}
	b.drv[s] = drv
	return nil
}

// Input declares an input; its name makes it a key or a primary input.
func (b *Builder) Input(s int32, pos int) error {
	b.inputs = append(b.inputs, s)
	return b.define(s, source, pos)
}

// Output declares a primary output. Any signal defined by Build time
// may be one, more than once.
func (b *Builder) Output(s int32) { b.outs = append(b.outs, s) }

// Gate declares out = t(fanin...), copying fanin.
func (b *Builder) Gate(out int32, t GateType, fanin []int32, pos int) error {
	b.gates = append(b.gates, gateRec{out, int32(len(b.fan)), int32(len(fanin)), int32(pos), t})
	b.fan = append(b.fan, fanin...)
	return b.define(out, int32(len(b.gates)-1), pos)
}

// DFF declares a flip-flop, which Build converts to the full-scan model
// every oracle-guided attack assumes: out becomes a pseudo primary
// input, data a pseudo primary output named "<out>_scanin".
func (b *Builder) DFF(out, data int32, pos int) error {
	b.dffs = append(b.dffs, dffRec{out, data, int32(pos)})
	return b.define(out, source, pos)
}

// Build assembles the circuit: primary inputs in declaration order, key
// inputs stably by number, DFF outputs, the logic gates in worklist
// order (see order), the outputs, then the DFFs' scan outputs.
func (b *Builder) Build(name string) (*Circuit, error) {
	order, err := b.order()
	if err != nil {
		return nil, err
	}
	c := New(name)
	id := make([]int32, len(b.names))
	for i := range id {
		id[i] = -1
	}
	var keys []int32
	for _, s := range b.inputs {
		if strings.HasPrefix(b.names[s], KeyPrefix) {
			keys = append(keys, s)
		} else {
			id[s] = int32(c.AddInput(b.names[s]))
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return keyNumber(b.names[keys[i]]) < keyNumber(b.names[keys[j]]) })
	for _, s := range keys {
		id[s] = int32(c.AddKey(b.names[s]))
	}
	for _, d := range b.dffs {
		id[d.out] = int32(c.AddInput(b.names[d.out]))
	}
	var fan []int
	for _, gi := range order {
		g := &b.gates[gi]
		fan = fan[:0]
		for _, s := range b.fan[g.off : g.off+g.n] {
			if id[s] < 0 { // all other fanins are built: a constant
				id[s] = int32(c.AddGate(Const0+GateType(s), b.names[s]))
			}
			fan = append(fan, int(id[s]))
		}
		id[g.out] = int32(c.AddGate(g.typ, b.names[g.out], fan...))
	}
	for _, s := range b.outs {
		if b.drv[s] == undeclared {
			return nil, &BuildError{0, fmt.Sprintf("output %q never defined", b.names[s])}
		}
		c.AddOutput(int(id[s]), b.names[s])
	}
	for _, d := range b.dffs {
		if b.drv[d.data] == undeclared {
			return nil, &BuildError{int(d.pos), fmt.Sprintf("DFF %q data input %q never defined", b.names[d.out], b.names[d.data])}
		}
		c.AddOutput(int(id[d.data]), b.names[d.out]+"_scanin")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// order returns the logic gates in the order of a worklist that passes
// over the pending gates in declaration order, adding each gate whose
// fanins are built, until none is left: the order netlists have always
// been built in, which fixes gate IDs and with them SAT trajectories
// and recorded statsatd resume tapes. Gate g is added in pass
//
//	pass(g) = max(1, max over gate fanins f of pass(f) + [f declared after g]),
//
// in declaration order within a pass: one depth-first walk computes
// every pass, and a stable counting sort by pass orders the gates. The
// walk reports an undefined signal at the gate that reads it, and a
// cycle at a gate on it.
func (b *Builder) order() ([]int32, error) {
	pass := make([]int32, len(b.gates)) // 0: unvisited; -1: on the walk
	type frame struct{ g, next int32 }
	var stack []frame
	maxPass := int32(0)
	for root := range b.gates {
		if pass[root] != 0 {
			continue
		}
		pass[root] = -1
		stack = append(stack[:0], frame{int32(root), 0})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			g := &b.gates[top.g]
			if top.next < g.n {
				s := b.fan[g.off+top.next]
				top.next++
				switch f := b.drv[s]; {
				case f == undeclared:
					return nil, &BuildError{int(g.pos), fmt.Sprintf("gate %q uses undefined signal %q", b.names[g.out], b.names[s])}
				case f >= 0 && pass[f] == -1:
					return nil, &BuildError{int(b.gates[f].pos), fmt.Sprintf("cyclic definition involving %q", b.names[b.gates[f].out])}
				case f >= 0 && pass[f] == 0:
					pass[f] = -1
					stack = append(stack, frame{f, 0})
				}
				continue
			}
			p := int32(1)
			for _, s := range b.fan[g.off : g.off+g.n] {
				if f := b.drv[s]; f > top.g {
					p = max(p, pass[f]+1)
				} else if f >= 0 {
					p = max(p, pass[f])
				}
			}
			pass[top.g] = p
			maxPass = max(maxPass, p)
			stack = stack[:len(stack)-1]
		}
	}
	next := make([]int32, maxPass+1) // per pass: its size, then its next slot
	for _, p := range pass {
		next[p]++
	}
	for p, sum := 0, int32(0); p <= int(maxPass); p++ {
		next[p], sum = sum, sum+next[p]
	}
	order := make([]int32, len(pass))
	for gi, p := range pass {
		order[next[p]] = int32(gi)
		next[p]++
	}
	return order, nil
}
