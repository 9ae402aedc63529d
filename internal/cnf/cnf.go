// Package cnf translates gate-level circuits into CNF for the SAT
// solver (Tseitin transformation with constant folding) and builds the
// miter formulations used by the SAT-attack family.
//
// Wires are represented symbolically: a wire is either a constant or a
// literal over solver variables. Constant folding matters here because
// the attacks hardwire distinguishing inputs into per-DIP circuit
// copies; folding shrinks those copies substantially.
package cnf

import (
	"context"
	"fmt"

	"statsat/internal/circuit"
	"statsat/internal/sat"
)

// Wire is a symbolic circuit wire: either a compile-time constant or a
// solver literal.
type Wire struct {
	Const bool
	Val   bool    // meaningful when Const
	Lit   sat.Lit // meaningful when !Const
}

// ConstWire returns a constant wire.
func ConstWire(v bool) Wire { return Wire{Const: true, Val: v} }

// LitWire wraps a literal as a wire.
func LitWire(l sat.Lit) Wire { return Wire{Lit: l} }

// Not returns the complement wire (free: flips const or literal).
func (w Wire) Not() Wire {
	if w.Const {
		return ConstWire(!w.Val)
	}
	return LitWire(w.Lit.Not())
}

// FreshLit allocates a new variable and returns its positive literal.
func FreshLit(s *sat.Solver) sat.Lit { return sat.PosLit(s.NewVar()) }

// FreshLits allocates n new variables.
func FreshLits(s *sat.Solver, n int) []sat.Lit {
	out := make([]sat.Lit, n)
	for i := range out {
		out[i] = FreshLit(s)
	}
	return out
}

// Options controls how Encode instantiates a circuit copy.
type Options struct {
	// FixedPIs, if non-nil, hardwires the primary inputs to constants
	// (the copy then has no PI variables). Length must equal NumPIs.
	// The gate variables of such a copy are functions of the keys
	// alone, so Encode makes them non-decision variables
	// (sat.Solver.SetDecision): unit propagation assigns every one of
	// them once the keys are set.
	FixedPIs []bool
	// PILits, if non-nil, reuses existing literals for the PIs
	// (shared-input miter copies). Ignored when FixedPIs is set.
	PILits []sat.Lit
	// KeyLits, if non-nil, reuses existing literals for the keys.
	KeyLits []sat.Lit
	// FixedKeys, if non-nil, hardwires the key inputs to constants.
	FixedKeys []bool
	// Share, if non-nil, memoizes the wires of key-independent gates
	// across Encode calls: a gate whose fanin cone contains no Key
	// input computes the same function in every copy that binds the
	// primary inputs identically, so later copies reuse the first
	// copy's encoding instead of emitting fresh variables and clauses.
	// All copies sharing a cache must target the same solver and the
	// same PI binding (identical PILits or identical FixedPIs); the
	// miter constructors manage those lifetimes.
	Share *ShareCache
	// Scratch, if non-nil, provides reusable clause-literal buffers
	// for the gate encoders so repeated copies (one per DIP, two per
	// miter) stop allocating per-gate temporaries.
	Scratch *Scratch
}

// ShareCache memoizes encoded wires of a circuit's key-independent
// cone. The zero value is not usable; create with NewShareCache. The
// key-dependence marking is computed once per circuit on first use
// and survives Reset; the memoized wires are per PI binding and are
// cleared by Reset.
type ShareCache struct {
	s     *sat.Solver // bound on first use; guards cross-solver reuse
	dep   []bool      // gate cone contains a Key input
	wires []Wire
	has   []bool
}

// NewShareCache returns an empty cache. One cache serves one
// (solver, circuit, PI binding) combination at a time; call Reset
// when moving to a new PI binding in the same solver.
func NewShareCache() *ShareCache { return &ShareCache{} }

// Reset forgets the memoized wires but keeps the (binding-
// independent) key-dependence marking.
func (sc *ShareCache) Reset() {
	for i := range sc.has {
		sc.has[i] = false
	}
}

func (sc *ShareCache) bind(s *sat.Solver, c *circuit.Circuit, order []int) {
	if sc.s == nil {
		sc.s = s
	} else if sc.s != s {
		panic("cnf: ShareCache reused across solvers")
	}
	if sc.dep != nil {
		return
	}
	dep := make([]bool, len(c.Gates))
	for _, id := range order {
		g := &c.Gates[id]
		if g.Type == circuit.Key {
			dep[id] = true
			continue
		}
		for _, f := range g.Fanin {
			if dep[f] {
				dep[id] = true
				break
			}
		}
	}
	sc.dep = dep
	sc.wires = make([]Wire, len(c.Gates))
	sc.has = make([]bool, len(c.Gates))
}

// Scratch holds reusable buffers for the gate encoders. The zero
// value is ready for use; a Scratch is not safe for concurrent use.
type Scratch struct {
	fan  []Wire
	neg  []Wire
	lits []sat.Lit
	big  []sat.Lit
}

// Copy is one CNF instantiation of a circuit.
type Copy struct {
	PIs  []Wire
	Keys []Wire
	Outs []Wire
}

// Encode instantiates circuit c into solver s per opts and returns the
// copy's interface wires.
func Encode(s *sat.Solver, c *circuit.Circuit, opts Options) (*Copy, error) {
	if opts.FixedPIs != nil && len(opts.FixedPIs) != c.NumPIs() {
		return nil, fmt.Errorf("cnf: FixedPIs length %d, want %d", len(opts.FixedPIs), c.NumPIs())
	}
	if opts.PILits != nil && len(opts.PILits) != c.NumPIs() {
		return nil, fmt.Errorf("cnf: PILits length %d, want %d", len(opts.PILits), c.NumPIs())
	}
	if opts.KeyLits != nil && len(opts.KeyLits) != c.NumKeys() {
		return nil, fmt.Errorf("cnf: KeyLits length %d, want %d", len(opts.KeyLits), c.NumKeys())
	}
	if opts.FixedKeys != nil && len(opts.FixedKeys) != c.NumKeys() {
		return nil, fmt.Errorf("cnf: FixedKeys length %d, want %d", len(opts.FixedKeys), c.NumKeys())
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}

	wires := make([]Wire, c.NumGates())
	cp := &Copy{
		PIs:  make([]Wire, c.NumPIs()),
		Keys: make([]Wire, c.NumKeys()),
		Outs: make([]Wire, c.NumPOs()),
	}
	for i, id := range c.PIs {
		switch {
		case opts.FixedPIs != nil:
			wires[id] = ConstWire(opts.FixedPIs[i])
		case opts.PILits != nil:
			wires[id] = LitWire(opts.PILits[i])
		default:
			wires[id] = LitWire(FreshLit(s))
		}
		cp.PIs[i] = wires[id]
	}
	for i, id := range c.Keys {
		switch {
		case opts.FixedKeys != nil:
			wires[id] = ConstWire(opts.FixedKeys[i])
		case opts.KeyLits != nil:
			wires[id] = LitWire(opts.KeyLits[i])
		default:
			wires[id] = LitWire(FreshLit(s))
		}
		cp.Keys[i] = wires[id]
	}

	firstGate := sat.Var(s.NumVars())
	share := opts.Share
	if share != nil {
		share.bind(s, c, order)
	}
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	fan := sc.fan[:0]
	for _, id := range order {
		g := &c.Gates[id]
		switch g.Type {
		case circuit.Input, circuit.Key:
			continue
		case circuit.Const0:
			wires[id] = ConstWire(false)
			continue
		case circuit.Const1:
			wires[id] = ConstWire(true)
			continue
		}
		if share != nil && !share.dep[id] && share.has[id] {
			wires[id] = share.wires[id]
			continue
		}
		fan = fan[:0]
		for _, f := range g.Fanin {
			fan = append(fan, wires[f])
		}
		w, err := encodeGateScratch(s, g.Type, fan, sc)
		if err != nil {
			return nil, fmt.Errorf("cnf: gate %d (%s): %w", id, g.Name, err)
		}
		wires[id] = w
		if share != nil && !share.dep[id] {
			share.wires[id] = w
			share.has[id] = true
		}
	}
	sc.fan = fan[:0]
	if opts.FixedPIs != nil {
		// Every variable allocated since the keys is a Tseitin gate
		// output whose free inputs are key literals. Newest first: each
		// is then the heap's last entry, and leaves it in O(1).
		for v := sat.Var(s.NumVars()) - 1; v >= firstGate; v-- {
			s.SetDecision(v, false)
		}
	}
	for i, po := range c.POs {
		cp.Outs[i] = wires[po]
	}
	return cp, nil
}

func encodeGateScratch(s *sat.Solver, t circuit.GateType, fan []Wire, sc *Scratch) (Wire, error) {
	switch t {
	case circuit.Buf:
		return fan[0], nil
	case circuit.Not:
		return fan[0].Not(), nil
	case circuit.And:
		return andScratch(s, fan, sc), nil
	case circuit.Nand:
		return andScratch(s, fan, sc).Not(), nil
	case circuit.Or:
		return orScratch(s, fan, sc), nil
	case circuit.Nor:
		return orScratch(s, fan, sc).Not(), nil
	case circuit.Xor:
		return XorN(s, fan...), nil
	case circuit.Xnor:
		return XorN(s, fan...).Not(), nil
	case circuit.Mux:
		return Mux(s, fan[0], fan[1], fan[2]), nil
	}
	return Wire{}, fmt.Errorf("unsupported gate type %v", t)
}

// And encodes an n-ary conjunction with constant folding.
func And(s *sat.Solver, in ...Wire) Wire {
	return andScratch(s, in, &Scratch{})
}

// andScratch is And over caller-owned scratch buffers. The solver
// copies every clause it is handed, so reusing sc across gates (and
// across Encode calls) is safe.
func andScratch(s *sat.Solver, in []Wire, sc *Scratch) Wire {
	lits := sc.lits[:0]
	for _, w := range in {
		if w.Const {
			if !w.Val {
				return ConstWire(false)
			}
			continue
		}
		lits = append(lits, w.Lit)
	}
	sc.lits = lits[:0]
	switch len(lits) {
	case 0:
		return ConstWire(true)
	case 1:
		return LitWire(lits[0])
	}
	z := FreshLit(s)
	// z → each lit; (all lits) → z.
	big := sc.big[:0]
	for _, l := range lits {
		s.AddClause(z.Not(), l)
		big = append(big, l.Not())
	}
	big = append(big, z)
	s.AddClause(big...)
	sc.big = big[:0]
	return LitWire(z)
}

// Or encodes an n-ary disjunction with constant folding.
func Or(s *sat.Solver, in ...Wire) Wire {
	return orScratch(s, in, &Scratch{})
}

func orScratch(s *sat.Solver, in []Wire, sc *Scratch) Wire {
	neg := sc.neg[:0]
	for _, w := range in {
		neg = append(neg, w.Not())
	}
	out := andScratch(s, neg, sc).Not()
	sc.neg = neg[:0]
	return out
}

// Xor2 encodes a binary XOR with constant folding.
func Xor2(s *sat.Solver, a, b Wire) Wire {
	if a.Const {
		if a.Val {
			return b.Not()
		}
		return b
	}
	if b.Const {
		if b.Val {
			return a.Not()
		}
		return a
	}
	if a.Lit == b.Lit {
		return ConstWire(false)
	}
	if a.Lit == b.Lit.Not() {
		return ConstWire(true)
	}
	z := FreshLit(s)
	s.AddClause(z.Not(), a.Lit, b.Lit)
	s.AddClause(z.Not(), a.Lit.Not(), b.Lit.Not())
	s.AddClause(z, a.Lit.Not(), b.Lit)
	s.AddClause(z, a.Lit, b.Lit.Not())
	return LitWire(z)
}

// XorN encodes an n-ary parity.
func XorN(s *sat.Solver, in ...Wire) Wire {
	acc := ConstWire(false)
	for _, w := range in {
		acc = Xor2(s, acc, w)
	}
	return acc
}

// Mux encodes sel ? b : a (matching circuit.Mux fanin order sel,a,b).
func Mux(s *sat.Solver, sel, a, b Wire) Wire {
	if sel.Const {
		if sel.Val {
			return b
		}
		return a
	}
	if a.Const && b.Const {
		switch {
		case a.Val == b.Val:
			return a
		case b.Val: // 0 when sel=0, 1 when sel=1
			return sel
		default:
			return sel.Not()
		}
	}
	if !a.Const && !b.Const && a.Lit == b.Lit {
		return a
	}
	z := FreshLit(s)
	// sel=0 → z=a ; sel=1 → z=b (with const specialisation).
	implyEq := func(cond sat.Lit, w Wire) {
		if w.Const {
			if w.Val {
				s.AddClause(cond.Not(), z)
			} else {
				s.AddClause(cond.Not(), z.Not())
			}
			return
		}
		s.AddClause(cond.Not(), w.Lit.Not(), z)
		s.AddClause(cond.Not(), w.Lit, z.Not())
	}
	implyEq(sel.Lit, b)       // sel=1 → z=b
	implyEq(sel.Lit.Not(), a) // sel=0 → z=a
	return LitWire(z)
}

// Equal adds clauses forcing w == val; it returns false if that is
// already contradictory (w is the opposite constant).
func Equal(s *sat.Solver, w Wire, val bool) bool {
	if w.Const {
		if w.Val != val {
			// Record inconsistency in the solver itself.
			s.AddClause()
			return false
		}
		return true
	}
	if val {
		return s.AddClause(w.Lit)
	}
	return s.AddClause(w.Lit.Not())
}

// NotEqualAny adds the constraint that at least one pair (a_i, b_i)
// differs. It returns false if the constraint is vacuously
// unsatisfiable (all pairs identical constants).
func NotEqualAny(s *sat.Solver, a, b []Wire) bool {
	if len(a) != len(b) {
		panic("cnf: NotEqualAny length mismatch")
	}
	var disj []sat.Lit
	for i := range a {
		d := Xor2(s, a[i], b[i])
		if d.Const {
			if d.Val {
				return true // a pair differs structurally: constraint trivially holds
			}
			continue
		}
		disj = append(disj, d.Lit)
	}
	if len(disj) == 0 {
		s.AddClause()
		return false
	}
	return s.AddClause(disj...)
}

// Miter is the SAT-attack formulation: two copies of a locked circuit
// share the primary-input variables, carry independent key variable
// sets, and are constrained to disagree on at least one output.
type Miter struct {
	S    *sat.Solver
	C    *circuit.Circuit
	PIs  []sat.Lit
	KeyA []sat.Lit
	KeyB []sat.Lit
	OutA []Wire
	OutB []Wire

	// dipShare memoizes the key-independent cone across the two copies
	// of one AddDIPCopies call; scratch backs the per-gate encoder
	// buffers. Both are lazily (re)created, so cloned miters start
	// fresh instead of racing on the parent's caches.
	dipShare *ShareCache
	scratch  *Scratch
}

// NewMiter builds the miter for locked circuit c in a fresh solver.
//
// Two formula-size reductions are applied. First, the circuit is run
// through circuit.Simplify — interface-preserving, so distinguishing
// inputs and recovered keys transfer verbatim to the original locked
// netlist — which strips the redundancy (buffer chains, duplicate
// cones, constant logic) that synthetic and resynthesised benchmarks
// carry. Second, the two symbolic copies share the primary-input
// variables AND the entire key-independent cone: a gate with no Key
// input in its fanin cone computes the same function of the shared
// PIs in both copies, so copy B reuses copy A's encoding for it. The
// per-DIP copies added later reuse the same simplified netlist.
func NewMiter(c *circuit.Circuit) (*Miter, error) {
	c, err := circuit.Simplify(c)
	if err != nil {
		return nil, err
	}
	s := sat.New()
	pis := FreshLits(s, c.NumPIs())
	keyA := FreshLits(s, c.NumKeys())
	keyB := FreshLits(s, c.NumKeys())
	share := NewShareCache()
	scratch := &Scratch{}
	ca, err := Encode(s, c, Options{PILits: pis, KeyLits: keyA, Share: share, Scratch: scratch})
	if err != nil {
		return nil, err
	}
	cb, err := Encode(s, c, Options{PILits: pis, KeyLits: keyB, Share: share, Scratch: scratch})
	if err != nil {
		return nil, err
	}
	m := &Miter{S: s, C: c, PIs: pis, KeyA: keyA, KeyB: keyB, OutA: ca.Outs, OutB: cb.Outs,
		scratch: scratch}
	NotEqualAny(s, ca.Outs, cb.Outs)
	return m, nil
}

// Input reads the distinguishing input from the last model.
func (m *Miter) Input() []bool {
	x := make([]bool, len(m.PIs))
	for i, l := range m.PIs {
		x[i] = m.S.ModelLit(l)
	}
	return x
}

// KeyAModel and KeyBModel read the two distinguishing keys from the
// last model.
func (m *Miter) KeyAModel() []bool { return modelOf(m.S, m.KeyA) }
func (m *Miter) KeyBModel() []bool { return modelOf(m.S, m.KeyB) }

func modelOf(s *sat.Solver, lits []sat.Lit) []bool {
	out := make([]bool, len(lits))
	for i, l := range lits {
		out[i] = s.ModelLit(l)
	}
	return out
}

// AddDIPCopies instantiates two copies of the circuit with the primary
// inputs hardwired to x, keyed by KeyA and KeyB respectively, and
// returns their output wires so the caller can constrain individual
// bits (StatSAT specifies bits incrementally).
func (m *Miter) AddDIPCopies(x []bool) (outA, outB []Wire, err error) {
	if m.dipShare == nil {
		m.dipShare = NewShareCache()
	}
	if m.scratch == nil {
		m.scratch = &Scratch{}
	}
	// Both copies fix the PIs to the same x, so the key-independent
	// cone is shareable within this call; Reset drops the previous
	// DIP's binding.
	m.dipShare.Reset()
	ca, err := Encode(m.S, m.C, Options{FixedPIs: x, KeyLits: m.KeyA, Share: m.dipShare, Scratch: m.scratch})
	if err != nil {
		return nil, nil, err
	}
	cb, err := Encode(m.S, m.C, Options{FixedPIs: x, KeyLits: m.KeyB, Share: m.dipShare, Scratch: m.scratch})
	if err != nil {
		return nil, nil, err
	}
	return ca.Outs, cb.Outs, nil
}

// KeySolver maintains the "all recorded DIPs" formula over a single
// key vector; it enumerates satisfying keys (for BER estimation) and
// produces the final key of an instance.
type KeySolver struct {
	S    *sat.Solver
	C    *circuit.Circuit
	Keys []sat.Lit

	scratch  *Scratch  // lazily created; not carried across Clone
	blockBuf []sat.Lit // EnumerateKeys' blocking-clause scratch; the solver copies every clause
}

// NewKeySolver builds an empty key-constraint solver for c. It
// encodes c as given; an attack passes its miter's simplified netlist
// (Miter.C), which is interface-preserving, so keys transfer verbatim
// to the locked circuit.
func NewKeySolver(c *circuit.Circuit) *KeySolver {
	s := sat.New()
	return &KeySolver{S: s, C: c, Keys: FreshLits(s, c.NumKeys())}
}

// AddDIPCopy instantiates a copy with PIs fixed to x over the shared
// key vector and returns its output wires. Each call has a distinct
// PI binding, so there is no cone to share — only the encoder
// scratch buffers are reused.
func (k *KeySolver) AddDIPCopy(x []bool) ([]Wire, error) {
	if k.scratch == nil {
		k.scratch = &Scratch{}
	}
	cp, err := Encode(k.S, k.C, Options{FixedPIs: x, KeyLits: k.Keys, Scratch: k.scratch})
	if err != nil {
		return nil, err
	}
	return cp.Outs, nil
}

// Key reads the key vector from the last model.
func (k *KeySolver) Key() []bool { return modelOf(k.S, k.Keys) }

// EnumerateKeys returns up to max distinct keys satisfying the current
// constraints, none of them in known. StatSAT's §IV-C candidates come
// from a pool of keys that still satisfy every recorded DIP; it passes
// the pool as known and asks here only for the shortfall. Every key,
// known or found, is blocked under a throwaway activation literal, so
// the blocking clauses are retired afterwards and do not constrain
// future queries. Cancelling ctx stops the enumeration early; the keys
// found so far are returned.
func (k *KeySolver) EnumerateKeys(ctx context.Context, max int, known [][]bool) [][]bool {
	if max <= 0 {
		return nil
	}
	act := FreshLit(k.S)
	for _, key := range known {
		k.block(act, key)
	}
	var keys [][]bool
	for len(keys) < max && k.S.SolveCtx(ctx, act) == sat.Sat {
		key := k.Key()
		keys = append(keys, key)
		k.block(act, key)
	}
	// Retire the blocking clauses permanently.
	k.S.AddClause(act.Not())
	return keys
}

// block excludes key while act holds.
func (k *KeySolver) block(act sat.Lit, key []bool) {
	c := append(k.blockBuf[:0], act.Not())
	for i, l := range k.Keys {
		if key[i] {
			c = append(c, l.Not())
		} else {
			c = append(c, l)
		}
	}
	k.S.AddClause(c...)
	k.blockBuf = c[:0]
}

// Clone deep-copies the key solver (instance duplication).
func (k *KeySolver) Clone() *KeySolver {
	return &KeySolver{S: k.S.Clone(), C: k.C, Keys: append([]sat.Lit(nil), k.Keys...)}
}

// CloneMiter deep-copies a miter (instance duplication).
func (m *Miter) Clone() *Miter {
	return &Miter{
		S:    m.S.Clone(),
		C:    m.C,
		PIs:  append([]sat.Lit(nil), m.PIs...),
		KeyA: append([]sat.Lit(nil), m.KeyA...),
		KeyB: append([]sat.Lit(nil), m.KeyB...),
		OutA: append([]Wire(nil), m.OutA...),
		OutB: append([]Wire(nil), m.OutB...),
	}
}
