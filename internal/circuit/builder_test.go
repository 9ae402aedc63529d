package circuit

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestKeySuffixOrdering(t *testing.T) {
	if keyNumber("keyinput7") != 7 {
		t.Error("numeric suffix not parsed")
	}
	if keyNumber("keyinputx") <= 1000000 {
		t.Error("non-numeric suffix should sort last")
	}
}

// decl is one netlist declaration as a front end makes it. The fanin
// names "1'b0" and "1'b1" are the constants.
type decl struct {
	kind  byte // 'i' input, 'o' output, 'g' gate, 'd' DFF (fanin[0] is its data)
	out   string
	typ   GateType
	fanin []string
}

// worklistBuild is the name resolution the .bench and Verilog parsers
// did before Builder: inputs, keys sorted by number and DFF outputs
// first, then passes over the pending gates in declaration order,
// each adding every gate whose fanins are built, until one adds none.
// Constants are added just before the first gate that uses them. It is
// quadratic when gates come before their drivers, and stays only as
// the reference Builder must reproduce.
func worklistBuild(name string, decls []decl) (*Circuit, error) {
	defined := map[string]bool{}
	var inputs, outputs []string
	var gates, dffs []decl
	for _, d := range decls {
		if d.kind == 'o' {
			outputs = append(outputs, d.out)
			continue
		}
		if defined[d.out] {
			return nil, fmt.Errorf("signal %q defined twice", d.out)
		}
		defined[d.out] = true
		switch d.kind {
		case 'i':
			inputs = append(inputs, d.out)
		case 'g':
			gates = append(gates, d)
		case 'd':
			dffs = append(dffs, d)
		}
	}

	c := New(name)
	id := map[string]int{}
	var keys []string
	for _, n := range inputs {
		if strings.HasPrefix(n, KeyPrefix) {
			keys = append(keys, n)
		} else {
			id[n] = c.AddInput(n)
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return keyNumber(keys[i]) < keyNumber(keys[j]) })
	for _, n := range keys {
		id[n] = c.AddKey(n)
	}
	for _, d := range dffs {
		id[d.out] = c.AddInput(d.out)
	}
	isConst := func(a string) bool { return a == "1'b0" || a == "1'b1" }
	constID := map[string]int{}
	for pending := gates; len(pending) > 0; {
		var next []decl
		for _, g := range pending {
			ready := true
			for _, a := range g.fanin {
				if _, ok := id[a]; !ok && !isConst(a) {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, g)
				continue
			}
			fan := make([]int, len(g.fanin))
			for i, a := range g.fanin {
				if !isConst(a) {
					fan[i] = id[a]
					continue
				}
				if _, ok := constID[a]; !ok {
					if a == "1'b0" {
						constID[a] = c.AddGate(Const0, "const0")
					} else {
						constID[a] = c.AddGate(Const1, "const1")
					}
				}
				fan[i] = constID[a]
			}
			id[g.out] = c.AddGate(g.typ, g.out, fan...)
		}
		if len(next) == len(pending) {
			return nil, errors.New("undefined signal or cycle")
		}
		pending = next
	}
	for _, o := range outputs {
		if _, ok := id[o]; !ok {
			return nil, fmt.Errorf("output %q never defined", o)
		}
		c.AddOutput(id[o], o)
	}
	for _, d := range dffs {
		data, ok := id[d.fanin[0]]
		if !ok {
			return nil, fmt.Errorf("DFF %q data never defined", d.out)
		}
		c.AddOutput(data, d.out+"_scanin")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// builderBuild declares decls into a Builder, at positions 1, 2, ...
func builderBuild(name string, decls []decl) (*Circuit, error) {
	b := NewBuilder()
	sym := func(n string) int32 {
		switch n {
		case "1'b0":
			return b.Const(Const0)
		case "1'b1":
			return b.Const(Const1)
		}
		return b.Sym([]byte(n))
	}
	for i, d := range decls {
		var err error
		switch d.kind {
		case 'i':
			err = b.Input(sym(d.out), i+1)
		case 'o':
			b.Output(sym(d.out))
		case 'g':
			fan := make([]int32, len(d.fanin))
			for j, a := range d.fanin {
				fan[j] = sym(a)
			}
			err = b.Gate(sym(d.out), d.typ, fan, i+1)
		case 'd':
			err = b.DFF(sym(d.out), sym(d.fanin[0]), i+1)
		}
		if err != nil {
			return nil, err
		}
	}
	return b.Build(name)
}

// randomDecls declares a random netlist in shuffled order: primary
// inputs, key inputs numbered out of order (some unnumbered), DFFs,
// gates of every logic type on earlier signals and the constants, and
// outputs. Some lists then get an undefined signal, a cycle or a
// signal declared twice.
func randomDecls(rng *rand.Rand) []decl {
	var decls, srcs []decl
	for i := 0; i < 1+rng.Intn(5); i++ {
		srcs = append(srcs, decl{kind: 'i', out: fmt.Sprintf("i%d", i)})
	}
	for _, k := range rng.Perm(rng.Intn(6)) {
		n := fmt.Sprintf("%s%d", KeyPrefix, k*(1+rng.Intn(3)))
		if rng.Intn(6) == 0 {
			n = fmt.Sprintf("%sx%d", KeyPrefix, k)
		}
		srcs = append(srcs, decl{kind: 'i', out: n})
	}
	nDFF := 0
	if rng.Intn(3) == 0 {
		nDFF = 1 + rng.Intn(3)
	}
	for i := 0; i < nDFF; i++ {
		srcs = append(srcs, decl{kind: 'd', out: fmt.Sprintf("q%d", i)})
	}
	signals := make([]string, 0, len(srcs))
	for _, d := range srcs {
		signals = append(signals, d.out)
	}
	nSrc := len(signals)
	var gates []decl
	for i := 0; i < 1+rng.Intn(40); i++ {
		typ := Buf + GateType(rng.Intn(int(Mux-Buf)+1))
		n := typ.MinFanin()
		if typ.MaxFanin() < 0 {
			n += rng.Intn(4)
		}
		fanin := make([]string, n)
		for j := range fanin {
			switch r := rng.Intn(20); {
			case r == 0:
				fanin[j] = "1'b0"
			case r == 1:
				fanin[j] = "1'b1"
			default:
				fanin[j] = signals[rng.Intn(len(signals))]
			}
		}
		g := decl{kind: 'g', out: fmt.Sprintf("g%d", i), typ: typ, fanin: fanin}
		gates = append(gates, g)
		signals = append(signals, g.out)
	}
	for i := range srcs {
		if srcs[i].kind == 'd' {
			srcs[i].fanin = []string{signals[rng.Intn(len(signals))]}
		}
	}
	decls = append(append(decls, srcs...), gates...)
	for i := 0; i < 1+rng.Intn(4); i++ {
		decls = append(decls, decl{kind: 'o', out: signals[nSrc+rng.Intn(len(signals)-nSrc)]})
	}
	if rng.Intn(8) == 0 {
		decls = append(decls, decl{kind: 'o', out: signals[rng.Intn(nSrc)]})
	}

	switch rng.Intn(12) {
	case 0: // an undefined signal
		g := &gates[rng.Intn(len(gates))]
		g.fanin[rng.Intn(len(g.fanin))] = "ghost"
	case 1: // a cycle: g(i) reads g(i+1), which reads g(i)
		if i := rng.Intn(len(gates)); i+1 < len(gates) {
			gates[i].fanin[0], gates[i+1].fanin[0] = gates[i+1].out, gates[i].out
		} else {
			gates[i].fanin[0] = gates[i].out
		}
	case 2: // a signal declared twice
		d := decls[rng.Intn(len(decls))]
		if d.kind == 'o' {
			d = gates[0]
		}
		decls = append(decls, d)
	case 3: // an output or a DFF's data never defined
		if nDFF > 0 {
			for i := range decls {
				if decls[i].kind == 'd' {
					decls[i].fanin = []string{"ghost"}
					break
				}
			}
		} else {
			decls = append(decls, decl{kind: 'o', out: "ghost"})
		}
	}
	rng.Shuffle(len(decls), func(i, j int) { decls[i], decls[j] = decls[j], decls[i] })
	return decls
}

// TestBuilderMatchesWorklist: on random declaration lists, Build returns
// exactly the worklist's circuit whenever the worklist builds one, and
// an error whenever it rejects the list.
func TestBuilderMatchesWorklist(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	built := 0
	const lists = 2000
	for n := 0; n < lists; n++ {
		decls := randomDecls(rng)
		want, werr := worklistBuild("rnd", decls)
		got, gerr := builderBuild("rnd", decls)
		if werr != nil {
			if gerr == nil {
				t.Fatalf("list %d: worklist rejects it (%v), Build accepts it\n%v", n, werr, decls)
			}
			var be *BuildError
			if !errors.As(gerr, &be) {
				t.Fatalf("list %d: Build error %v is %T, want *BuildError", n, gerr, gerr)
			}
			continue
		}
		if gerr != nil {
			t.Fatalf("list %d: Build: %v\n%v", n, gerr, decls)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("list %d: circuits differ\nBuild:    %+v\nworklist: %+v", n, got.Gates, want.Gates)
		}
		built++
	}
	// Both outcomes must be well represented for the comparison to
	// mean anything.
	if built < lists/2 || built > lists*9/10 {
		t.Errorf("%d of %d lists built", built, lists)
	}
	t.Logf("%d of %d lists built identically, %d rejected by both", built, lists, lists-built)
}
