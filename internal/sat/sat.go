// Package sat implements a from-scratch CDCL (conflict-driven clause
// learning) Boolean satisfiability solver in the MiniSat lineage:
// two-watched-literal propagation, first-UIP conflict analysis with
// clause minimisation, VSIDS variable activities over the decision
// variables (SetDecision), phase saving, Luby restarts, activity-based
// learnt-clause reduction, incremental clause addition between calls,
// solving under assumptions, and deep cloning (used by StatSAT instance
// duplication).
//
// The paper's reference implementation drives Lingeling through the
// Subramanyan et al. SAT-attack framework; this package is the
// self-contained substitute.
package sat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Var is a 0-based variable index.
type Var int32

// Lit is a literal: variable 2*v for the positive phase, 2*v+1 for the
// negative phase.
type Lit int32

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit and NegLit are convenience constructors.
func PosLit(v Var) Lit { return MkLit(v, false) }
func NegLit(v Var) Lit { return MkLit(v, true) }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// String renders the literal DIMACS-style (1-based, minus = negated).
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref addresses a clause in the solver's arena: the offset of its
// header word. Refs are plain integers, so watchers, reasons and the
// clause lists hold no pointers and the garbage collector never walks
// the clause graph.
type cref uint32

// noRef is the null clause reference (a decision, an assumption or a
// unit clause has no reason clause).
const noRef = ^cref(0)

// Search constants: VSIDS and learnt-clause activity decay, and the
// Luby restart unit in conflicts.
const (
	varDecay    = 0.95
	claDecay    = 0.999
	restartBase = 100
)

// Clause layout in the arena: a clauseHeader-word header followed by
// the literals. Word 0 packs the size and two flags; the others hold
// the LBD and the float32 activity bits.
const (
	hdrSize      = 0 // size<<2 | deleted<<1 | learnt
	hdrLBD       = 1
	hdrAct       = 2
	clauseHeader = 3

	learntBit  Lit = 1
	deletedBit Lit = 2
)

// watcher is one entry of a watch list: the watched clause and a
// blocker literal from it (when the blocker is true the clause is
// satisfied and the visit ends without touching the arena).
type watcher struct {
	cr      cref
	blocker Lit
}

// Status is the outcome of a Solve call.
type Status int8

// Solve outcomes.
const (
	// Unknown means the solver stopped before reaching a verdict
	// (budget exhausted).
	Unknown Status = iota
	// Sat means a model was found.
	Sat
	// Unsat means the formula (under the given assumptions) has no model.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena   []Lit  // every clause: header words, then literals (docs/SOLVER.md)
	clauses []cref // problem clauses
	learnts []cref // learnt clauses
	watches [][]watcher

	value    []lbool // per literal, so a literal's truth is one load
	level    []int32
	reason   []cref
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    heap // max-activity heap over the unassigned decision variables
	phase    []lbool
	decision []bool // false: never in the heap (SetDecision)

	claInc float64

	okay bool // false once a top-level conflict is established

	// Scratch: conflict analysis, LBD level stamps, clause intake.
	seen       []byte
	analyzeBuf []Lit
	lbdStamp   []uint32 // decision level -> lbdTick of its last count
	lbdTick    uint32
	addBuf     []Lit

	// Statistics.
	Stats Statistics

	// Budget limits a single Solve call; 0 means unlimited.
	ConflictBudget int64

	// interrupt, when non-nil, aborts the search once the channel is
	// closed (checked amortized over conflicts, like ConflictBudget).
	// Set transiently by SolveCtx; never copied by Clone.
	interrupt <-chan struct{}

	// Model caching: last solution, indexed by var.
	model []lbool
}

// Statistics accumulates solver counters across Solve calls.
type Statistics struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64
	Solves       int64
}

// Snapshot is a point-in-time view of a solver: current formula size
// plus the cumulative Statistics counters. It is a plain value — safe
// to retain after the solver moves on.
type Snapshot struct {
	Vars    int
	Clauses int
	Learnts int // learnt clauses currently retained (Statistics.Learnt counts all ever learnt)
	Statistics
}

// Snapshot captures the solver's current counters. The solver is not
// goroutine-safe, so call this only from the goroutine driving it.
func (s *Solver) Snapshot() Snapshot {
	return Snapshot{
		Vars:       s.NumVars(),
		Clauses:    s.NumClauses(),
		Learnts:    s.NumLearnts(),
		Statistics: s.Stats,
	}
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, claInc: 1, okay: true}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses retained.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learnt clauses currently retained
// (reduceDB periodically discards about half).
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Clauses returns a copy of the retained problem clauses (after
// top-level simplification) plus the root-level unit assignments.
// Intended for tooling and verification, not hot paths.
func (s *Solver) Clauses() [][]Lit {
	out := make([][]Lit, 0, len(s.clauses)+8)
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			out = append(out, []Lit{l})
		}
	}
	for _, cr := range s.clauses {
		out = append(out, append([]Lit(nil), s.lits(cr)...))
	}
	return out
}

// lits returns the literals of clause cr, aliasing the arena: valid
// until the next clause allocation or compaction.
func (s *Solver) lits(cr cref) []Lit {
	start := int(cr) + clauseHeader
	return s.arena[start : start+int(uint32(s.arena[int(cr)+hdrSize])>>2)]
}

func (s *Solver) lbdOf(cr cref) int32 { return int32(s.arena[int(cr)+hdrLBD]) }

func (s *Solver) activityOf(cr cref) float32 {
	return math.Float32frombits(uint32(s.arena[int(cr)+hdrAct]))
}

func (s *Solver) setActivity(cr cref, a float32) {
	s.arena[int(cr)+hdrAct] = Lit(math.Float32bits(a))
}

// alloc appends a clause to the arena (activity 0) and returns its ref.
func (s *Solver) alloc(lits []Lit, learnt bool, lbd int32) cref {
	cr := len(s.arena)
	if uint64(cr)+clauseHeader+uint64(len(lits)) >= uint64(noRef) {
		panic("sat: clause arena exceeds 2^32 words")
	}
	hdr := Lit(len(lits)) << 2
	if learnt {
		hdr |= learntBit
	}
	s.arena = append(s.arena, hdr, Lit(lbd), 0)
	s.arena = append(s.arena, lits...)
	return cref(cr)
}

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.value = append(s.value, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noRef)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lFalse) // branch false first
	s.decision = append(s.decision, true)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v, &s.activity)
	return v
}

// NewVars allocates n fresh variables and returns the first.
func (s *Solver) NewVars(n int) Var {
	first := Var(len(s.level))
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return first
}

// SetDecision makes v a decision variable (b, the default for a new
// variable) or takes it out of the VSIDS heap (!b). The search never
// branches on a non-decision variable while a decision variable is
// free; one that propagation assigns as soon as the decision variables
// are set (a Tseitin gate whose inputs all are) costs the heap nothing.
// If every decision variable is assigned and a non-decision variable
// is still free, Solve decides it anyway (pickBranchVar), so a Sat
// model is always total. A solver that never calls SetDecision
// searches exactly as one without it.
func (s *Solver) SetDecision(v Var, b bool) {
	s.decision[v] = b
	switch {
	case b && !s.order.inHeap(v):
		s.order.push(v, &s.activity)
	case !b && s.order.inHeap(v):
		s.order.remove(v, &s.activity)
	}
}

// Okay reports whether the solver is still consistent at the top level
// (false after an empty-clause addition or a level-0 conflict).
func (s *Solver) Okay() bool { return s.okay }

// AddClause adds a clause (given as a literal disjunction). It may be
// called before or between Solve calls; the solver backtracks to the
// root level first. Returns false if the solver became inconsistent.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.okay {
		return false
	}
	s.cancelUntil(0)
	// Sort and dedup; drop tautologies and false literals. The literals
	// are staged in a reusable buffer; alloc copies them into the arena.
	buf := append(s.addBuf[:0], lits...)
	s.addBuf = buf
	slices.Sort(buf)
	out := buf[:0]
	var prev Lit = -1
	for _, l := range buf {
		if int(l.Var()) >= len(s.level) {
			panic(fmt.Sprintf("sat: clause uses unallocated variable %d", l.Var()))
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() && l.Var() == prev.Var() {
			return true // tautology: x ∨ ¬x
		}
		switch s.value[l] {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return true // satisfied at root
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				prev = l
				continue // drop root-false literal
			}
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.okay = false
		return false
	case 1:
		if !s.enqueue(out[0], noRef) {
			s.okay = false
			return false
		}
		if s.propagate() != noRef {
			s.okay = false
			return false
		}
		return true
	}
	cr := s.alloc(out, false, 0)
	s.clauses = append(s.clauses, cr)
	s.attach(cr)
	return true
}

func (s *Solver) attach(cr cref) {
	lits := s.lits(cr)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{cr, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{cr, l0})
}

func (s *Solver) detach(cr cref) {
	lits := s.lits(cr)
	s.removeWatch(lits[0].Not(), cr)
	s.removeWatch(lits[1].Not(), cr)
}

func (s *Solver) removeWatch(l Lit, cr cref) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].cr == cr {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.value[l] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.value[l] = lTrue
	s.value[l.Not()] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation to a fixpoint and returns the
// conflicting clause, or noRef. Watch lists are compacted stably; a
// watcher whose clause finds a new literal to watch is appended to
// that literal's list.
func (s *Solver) propagate() cref {
	confl := noRef
	vals := s.value
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		i, j := 0, 0
	outer:
		for i < len(ws) {
			w := ws[i]
			i++
			if vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			cr := w.cr
			lits := s.lits(cr)
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			first := lits[0]
			nw := watcher{cr, first}
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = nw
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], falseLit
					wl := lits[1].Not()
					s.watches[wl] = append(s.watches[wl], nw)
					continue outer
				}
			}
			// Clause is unit or conflicting.
			ws[j] = nw
			j++
			if !s.enqueue(first, cr) {
				confl = cr
				s.qhead = len(s.trail)
				break
			}
		}
		if j < i { // some watchers moved to other lists
			j += copy(ws[j:], ws[i:])
			s.watches[p] = ws[:j]
		}
		if confl != noRef {
			return confl
		}
	}
	return noRef
}

func (s *Solver) cancelUntil(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.value[PosLit(v)]
		s.value[l] = lUndef
		s.value[l.Not()] = lUndef
		s.reason[v] = noRef
		if s.decision[v] && !s.order.inHeap(v) {
			s.order.push(v, &s.activity)
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.order.inHeap(v) {
		s.order.decrease(v, &s.activity)
	}
}

func (s *Solver) bumpClause(cr cref) {
	a := s.activityOf(cr) + float32(s.claInc)
	s.setActivity(cr, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setActivity(lc, s.activityOf(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// analyze performs 1-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level. The clause
// aliases the solver's scratch buffer: it is valid until the next
// analyze, and recordLearnt copies it into the arena.
func (s *Solver) analyze(confl cref) ([]Lit, int32) {
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, 0) // placeholder for asserting literal
	var p Lit = -1
	idx := len(s.trail) - 1
	counter := 0
	for {
		s.bumpClause(confl)
		lits := s.lits(confl)
		if p != -1 {
			lits = lits[1:]
		}
		for _, q := range lits {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal on trail to resolve on.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Conflict clause minimisation (local: drop literals implied by
	// the rest of the clause through their reason clauses). Every
	// literal stays marked until the end; kept literals are swapped to
	// the front in order, so learnt still lists all marked variables
	// for the clearing pass afterwards.
	for _, l := range learnt {
		s.seen[l.Var()] = 1
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if !s.redundant(learnt[i]) {
			learnt[j], learnt[i] = learnt[i], learnt[j]
			j++
		}
	}
	minimised := learnt[:j]

	// Backtrack level: second-highest level in clause.
	btLevel := int32(0)
	if len(minimised) > 1 {
		maxI := 1
		for i := 2; i < len(minimised); i++ {
			if s.level[minimised[i].Var()] > s.level[minimised[maxI].Var()] {
				maxI = i
			}
		}
		minimised[1], minimised[maxI] = minimised[maxI], minimised[1]
		btLevel = s.level[minimised[1].Var()]
	}
	for _, l := range learnt {
		s.seen[l.Var()] = 0
	}
	s.analyzeBuf = learnt[:0]
	return minimised, btLevel
}

// redundant reports whether literal l in a learnt clause is implied by
// the other marked literals via its reason clause (one-step check).
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == noRef {
		return false
	}
	for _, q := range s.lits(r) {
		if q.Var() == l.Var() || s.level[q.Var()] == 0 {
			continue
		}
		if s.seen[q.Var()] == 0 {
			return false
		}
	}
	return true
}

// computeLBD counts the distinct decision levels among lits by
// stamping each level with a per-call tick.
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdTick++
	if s.lbdTick == 0 { // wrapped: old stamps could collide
		clear(s.lbdStamp)
		s.lbdTick = 1
	}
	n := int32(0)
	for _, l := range lits {
		lv := s.level[l.Var()]
		if int(lv) >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, make([]uint32, int(lv)+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lv] != s.lbdTick {
			s.lbdStamp[lv] = s.lbdTick
			n++
		}
	}
	return n
}

func (s *Solver) recordLearnt(lits []Lit, btLevel int32) bool {
	s.cancelUntil(btLevel)
	switch len(lits) {
	case 0:
		s.okay = false
		return false
	case 1:
		if !s.enqueue(lits[0], noRef) {
			s.okay = false
			return false
		}
	default:
		cr := s.alloc(lits, true, s.computeLBD(lits))
		s.learnts = append(s.learnts, cr)
		s.Stats.Learnt++
		s.attach(cr)
		s.bumpClause(cr)
		if !s.enqueue(lits[0], cr) {
			s.okay = false
			return false
		}
	}
	s.varInc /= varDecay
	s.claInc /= claDecay
	return true
}

// reduceDB removes roughly half of the learnt clauses, keeping the
// most active / lowest-LBD ones and any currently locked clause, then
// compacts the arena.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		la, lb := s.lbdOf(a), s.lbdOf(b)
		if (la <= 2) != (lb <= 2) {
			return la <= 2
		}
		return s.activityOf(a) > s.activityOf(b)
	})
	keep := len(s.learnts) / 2
	kept := s.learnts[:0]
	freed := 0
	for i, cr := range s.learnts {
		lits := s.lits(cr)
		locked := s.reason[lits[0].Var()] == cr && s.value[lits[0]] == lTrue
		if i < keep || locked || len(lits) <= 2 {
			kept = append(kept, cr)
		} else {
			s.detach(cr)
			s.arena[int(cr)+hdrSize] |= deletedBit
			freed += clauseHeader + len(lits)
			s.Stats.Removed++
		}
	}
	s.learnts = kept
	if freed > 0 {
		s.compact(freed)
	}
}

// compact copies the live clauses into a fresh arena in their current
// order and rewrites every ref: watchers, reasons and both clause
// lists keep their order, so compaction never changes the search.
// Deleted clauses are unreachable by then (reduceDB detached them and
// never deletes a locked reason).
func (s *Solver) compact(freed int) {
	old := s.arena
	arena := make([]Lit, 0, len(old)-freed)
	for cr := 0; cr < len(old); {
		end := cr + clauseHeader + int(uint32(old[cr+hdrSize])>>2)
		if old[cr+hdrSize]&deletedBit == 0 {
			nr := len(arena)
			arena = append(arena, old[cr:end]...)
			old[cr+hdrLBD] = Lit(nr) // forwarding ref; old is discarded
		}
		cr = end
	}
	fwd := func(cr cref) cref { return cref(old[int(cr)+hdrLBD]) }
	for _, ws := range s.watches {
		for k := range ws {
			ws[k].cr = fwd(ws[k].cr)
		}
	}
	for v, r := range s.reason {
		if r != noRef {
			s.reason[v] = fwd(r)
		}
	}
	for k, cr := range s.clauses {
		s.clauses[k] = fwd(cr)
	}
	for k, cr := range s.learnts {
		s.learnts[k] = fwd(cr)
	}
	s.arena = arena
}

// pickBranchVar pops the most active unassigned decision variable.
// Once every variable is assigned, popping would drain the heap entry
// by entry; emptying it in one sweep reaches the same empty heap. The
// heap holds no non-decision variable (SetDecision removes it and
// cancelUntil never puts it back), so if it runs dry while variables
// are still free, those are non-decision variables that the decision
// variables do not imply: they are decided in index order.
func (s *Solver) pickBranchVar() (Var, bool) {
	if len(s.trail) == len(s.level) {
		s.order.clear()
		return 0, false
	}
	for s.order.size() > 0 {
		v := s.order.pop(&s.activity)
		if s.value[PosLit(v)] == lUndef {
			return v, true
		}
	}
	for v := range s.level {
		if s.value[PosLit(Var(v))] == lUndef {
			return Var(v), true
		}
	}
	return 0, false
}

// luby computes the Luby sequence value for index i (1-based):
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}

// interruptCheckInterval is how many conflicts pass between two looks
// at the interrupt channel: cheap enough to be invisible in the search
// loop, fine-grained enough that cancellation lands within
// milliseconds on any real formula.
const interruptCheckInterval = 256

// SolveCtx is Solve with cancellation: when ctx is cancelled or its
// deadline passes, the search unwinds and returns Unknown. The check
// is amortized over conflicts (every interruptCheckInterval), so a
// solve that never conflicts — unit propagation straight to a model —
// completes even under a cancelled context. Callers distinguish a
// cancelled Unknown from a ConflictBudget Unknown via ctx.Err().
func (s *Solver) SolveCtx(ctx context.Context, assumptions ...Lit) Status {
	if ctx.Err() != nil {
		s.Stats.Solves++
		return Unknown
	}
	s.interrupt = ctx.Done()
	defer func() { s.interrupt = nil }()
	return s.Solve(assumptions...)
}

// Solve runs the CDCL search under the given assumptions. It returns
// Sat, Unsat, or Unknown (only when ConflictBudget is exhausted or a
// SolveCtx context fires).
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.Stats.Solves++
	if !s.okay {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != noRef {
		s.okay = false
		return Unsat
	}

	var conflictsAtStart = s.Stats.Conflicts
	var restartIdx int64 = 1
	restartLimit := restartBase * luby(restartIdx)
	conflictsSinceRestart := int64(0)
	maxLearnts := int64(len(s.clauses))/3 + 1000

	for {
		confl := s.propagate()
		if confl != noRef {
			s.Stats.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.okay = false
				return Unsat
			}
			// Learn and backjump. Backjumping below the assumption
			// levels is fine: the decision loop re-asserts the
			// assumptions; a genuinely inconsistent assumption then
			// shows up as a false literal at its decision point.
			learnt, btLevel := s.analyze(confl)
			if !s.recordLearnt(learnt, btLevel) {
				return Unsat
			}
			if s.ConflictBudget > 0 && s.Stats.Conflicts-conflictsAtStart >= s.ConflictBudget {
				s.cancelUntil(0)
				return Unknown
			}
			if s.interrupt != nil &&
				(s.Stats.Conflicts-conflictsAtStart)%interruptCheckInterval == 0 {
				select {
				case <-s.interrupt:
					s.cancelUntil(0)
					return Unknown
				default:
				}
			}
			continue
		}

		if conflictsSinceRestart >= restartLimit {
			s.Stats.Restarts++
			restartIdx++
			restartLimit = restartBase * luby(restartIdx)
			conflictsSinceRestart = 0
			s.cancelUntil(int32(s.countAssumptionLevels(assumptions)))
			continue
		}

		if int64(len(s.learnts)) >= maxLearnts {
			maxLearnts += maxLearnts / 10
			s.reduceDB()
		}

		// Assumption decisions first.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value[a] {
			case lTrue:
				// Already satisfied: open an empty decision level so
				// the level↔assumption-index mapping stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			if !s.enqueue(a, noRef) {
				s.cancelUntil(0)
				return Unsat
			}
			continue
		}

		v, ok := s.pickBranchVar()
		if !ok {
			// All variables assigned: model found.
			s.saveModel()
			s.cancelUntil(0)
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		ph := s.phase[v]
		lit := MkLit(v, ph != lTrue)
		s.enqueue(lit, noRef)
	}
}

func (s *Solver) countAssumptionLevels(assumptions []Lit) int {
	n := len(assumptions)
	if int(s.decisionLevel()) < n {
		n = int(s.decisionLevel())
	}
	return n
}

func (s *Solver) saveModel() {
	n := len(s.level)
	if cap(s.model) < n {
		s.model = make([]lbool, n)
	}
	s.model = s.model[:n]
	for v := range s.model {
		s.model[v] = s.value[PosLit(Var(v))]
	}
}

// ModelValue returns the last model's value of v. Only meaningful
// directly after Solve returned Sat.
func (s *Solver) ModelValue(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// ModelLit returns the last model's truth value of a literal.
func (s *Solver) ModelLit(l Lit) bool {
	b := s.ModelValue(l.Var())
	if l.Neg() {
		return !b
	}
	return b
}

// Clone returns a deep copy of the solver: clauses, learnt clauses,
// activities, phases, decision flags and statistics. The clone can
// evolve completely independently (StatSAT instance duplication relies
// on this).
//
// Clause refs are arena offsets, so the clause store, both clause
// lists, the reasons and the watch lists copy verbatim.
func (s *Solver) Clone() *Solver {
	s.cancelUntil(0)
	n := New()
	n.okay = s.okay
	n.varInc, n.claInc = s.varInc, s.claInc
	n.ConflictBudget = s.ConflictBudget
	n.Stats = s.Stats

	n.arena = slices.Clone(s.arena)
	n.clauses = slices.Clone(s.clauses)
	n.learnts = slices.Clone(s.learnts)
	n.value = slices.Clone(s.value)
	n.level = slices.Clone(s.level)
	n.reason = slices.Clone(s.reason)
	n.trail = slices.Clone(s.trail)
	n.qhead = s.qhead
	n.activity = slices.Clone(s.activity)
	n.phase = slices.Clone(s.phase)
	n.decision = slices.Clone(s.decision)
	n.seen = make([]byte, len(s.seen))
	n.model = slices.Clone(s.model)

	// All watch lists share one backing array; each list's capacity
	// ends at its length, so a later append reallocates that list
	// alone.
	total := 0
	for _, ws := range s.watches {
		total += len(ws)
	}
	buf := make([]watcher, total)
	n.watches = make([][]watcher, len(s.watches))
	for i, ws := range s.watches {
		if len(ws) == 0 {
			continue
		}
		k := copy(buf, ws)
		n.watches[i] = buf[:k:k]
		buf = buf[k:]
	}
	n.order = s.order.clone()
	return n
}

// heap is a max-heap over variables keyed by activity.
type heap struct {
	data []Var
	pos  []int32 // var -> index in data, -1 if absent
}

func (h *heap) size() int { return len(h.data) }

func (h *heap) inHeap(v Var) bool {
	return int(v) < len(h.pos) && h.pos[v] >= 0
}

func (h *heap) push(v Var, act *[]float64) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = int32(len(h.data))
	h.data = append(h.data, v)
	h.up(int(h.pos[v]), act)
}

// clear empties the heap.
func (h *heap) clear() {
	for _, v := range h.data {
		h.pos[v] = -1
	}
	h.data = h.data[:0]
}

func (h *heap) pop(act *[]float64) Var {
	top := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[top] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.pos[last] = 0
		h.down(0, act)
	}
	return top
}

// remove takes v, which must be in the heap, out of it.
func (h *heap) remove(v Var, act *[]float64) {
	i := int(h.pos[v])
	h.pos[v] = -1
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	if i < len(h.data) {
		h.data[i] = last
		h.pos[last] = int32(i)
		h.up(i, act)
		h.down(int(h.pos[last]), act)
	}
}

func (h *heap) decrease(v Var, act *[]float64) {
	h.up(int(h.pos[v]), act)
}

func (h *heap) up(i int, act *[]float64) {
	a := *act
	x := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if a[h.data[p]] >= a[x] {
			break
		}
		h.data[i] = h.data[p]
		h.pos[h.data[i]] = int32(i)
		i = p
	}
	h.data[i] = x
	h.pos[x] = int32(i)
}

func (h *heap) down(i int, act *[]float64) {
	a := *act
	x := h.data[i]
	for {
		l := 2*i + 1
		if l >= len(h.data) {
			break
		}
		c := l
		if r := l + 1; r < len(h.data) && a[h.data[r]] > a[h.data[l]] {
			c = r
		}
		if a[h.data[c]] <= a[x] {
			break
		}
		h.data[i] = h.data[c]
		h.pos[h.data[i]] = int32(i)
		i = c
	}
	h.data[i] = x
	h.pos[x] = int32(i)
}

func (h *heap) clone() heap {
	return heap{
		data: append([]Var(nil), h.data...),
		pos:  append([]int32(nil), h.pos...),
	}
}
