package sat

import (
	"math/rand"
	"testing"
)

// mk builds a solver over n variables.
func mk(n int) (*Solver, []Var) {
	s := New()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	return s, vars
}

func lits(s *Solver, xs ...int) []Lit {
	out := make([]Lit, len(xs))
	for i, x := range xs {
		if x > 0 {
			out[i] = PosLit(Var(x - 1))
		} else {
			out[i] = NegLit(Var(-x - 1))
		}
	}
	return out
}

// TestDefaultPhaseFalse pins the fixed initial phase: with nothing to
// propagate, every variable — including one allocated after a solve —
// is decided false.
func TestDefaultPhaseFalse(t *testing.T) {
	s, vars := mk(3)
	if s.Solve() != Sat {
		t.Fatal("empty formula unsat?")
	}
	for _, v := range vars {
		if s.ModelValue(v) {
			t.Fatalf("var %d decided true, want false", v)
		}
	}
	nv := s.NewVar()
	if s.Solve() != Sat || s.ModelValue(nv) {
		t.Error("variable allocated after a solve decided true, want false")
	}
}

func TestLitEncoding(t *testing.T) {
	v := Var(5)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Error("Var() broken")
	}
	if p.Neg() || !n.Neg() {
		t.Error("Neg() broken")
	}
	if p.Not() != n || n.Not() != p {
		t.Error("Not() broken")
	}
	if p.String() != "6" || n.String() != "-6" {
		t.Errorf("String() = %q, %q", p, n)
	}
	if MkLit(v, true) != n || MkLit(v, false) != p {
		t.Error("MkLit broken")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("Status strings wrong")
	}
}

func TestTrivialSat(t *testing.T) {
	s, v := mk(1)
	s.AddClause(PosLit(v[0]))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if !s.ModelValue(v[0]) {
		t.Error("model: x must be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s, v := mk(1)
	s.AddClause(PosLit(v[0]))
	s.AddClause(NegLit(v[0]))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
	if s.Okay() {
		t.Error("solver should be permanently inconsistent")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s, _ := mk(1)
	if s.AddClause() {
		t.Error("empty clause must fail")
	}
	if s.Solve() != Unsat {
		t.Error("empty clause ⇒ Unsat")
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s, _ := mk(3)
	if s.Solve() != Sat {
		t.Error("empty formula over 3 vars should be Sat")
	}
}

func TestTautologyDropped(t *testing.T) {
	s, v := mk(1)
	s.AddClause(PosLit(v[0]), NegLit(v[0]))
	if s.NumClauses() != 0 {
		t.Error("tautology should not be stored")
	}
	if s.Solve() != Sat {
		t.Error("tautology-only formula is Sat")
	}
}

func TestDuplicateLiteralsDeduped(t *testing.T) {
	s, v := mk(2)
	s.AddClause(PosLit(v[0]), PosLit(v[0]), PosLit(v[1]))
	if s.Solve() != Sat {
		t.Error("should be Sat")
	}
}

func TestImplicationChain(t *testing.T) {
	// x0 ∧ (x0→x1) ∧ (x1→x2) ... forces all true.
	const n = 50
	s, v := mk(n)
	s.AddClause(PosLit(v[0]))
	for i := 0; i+1 < n; i++ {
		s.AddClause(NegLit(v[i]), PosLit(v[i+1]))
	}
	if s.Solve() != Sat {
		t.Fatal("chain should be Sat")
	}
	for i := 0; i < n; i++ {
		if !s.ModelValue(v[i]) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

func TestXorChainUnsat(t *testing.T) {
	// (a⊕b) ∧ (b⊕c) ∧ (a⊕c) is UNSAT (odd cycle).
	s, v := mk(3)
	xor := func(a, b Var) {
		s.AddClause(PosLit(a), PosLit(b))
		s.AddClause(NegLit(a), NegLit(b))
	}
	xor(v[0], v[1])
	xor(v[1], v[2])
	xor(v[0], v[2])
	if s.Solve() != Unsat {
		t.Error("odd xor cycle should be Unsat")
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons in n holes, UNSAT.
func pigeonhole(s *Solver, pigeons, holes int) {
	v := make([][]Var, pigeons)
	for p := range v {
		v[p] = make([]Var, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		c := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			c[h] = PosLit(v[p][h])
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(v[p1][h]), NegLit(v[p2][h]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Errorf("PHP(5,5) = %v, want Sat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s, v := mk(3)
	// (x0 ∨ x1) ∧ (¬x0 ∨ x2)
	s.AddClause(PosLit(v[0]), PosLit(v[1]))
	s.AddClause(NegLit(v[0]), PosLit(v[2]))

	if s.Solve(PosLit(v[0]), NegLit(v[2])) != Unsat {
		t.Error("x0 ∧ ¬x2 should contradict")
	}
	// Solver must remain usable with different assumptions.
	if s.Solve(PosLit(v[0])) != Sat {
		t.Error("x0 alone should be Sat")
	}
	if !s.ModelValue(v[2]) {
		t.Error("x0 forces x2")
	}
	if s.Solve(NegLit(v[0]), NegLit(v[1])) != Unsat {
		t.Error("¬x0 ∧ ¬x1 should contradict clause 1")
	}
	if s.Solve() != Sat {
		t.Error("formula without assumptions is Sat")
	}
	if !s.Okay() {
		t.Error("assumption UNSAT must not poison the solver")
	}
}

func TestContradictoryAssumptions(t *testing.T) {
	s, v := mk(2)
	s.AddClause(PosLit(v[0]), PosLit(v[1]))
	if s.Solve(PosLit(v[0]), NegLit(v[0])) != Unsat {
		t.Error("a ∧ ¬a assumptions must be Unsat")
	}
	if s.Solve() != Sat {
		t.Error("solver must survive contradictory assumptions")
	}
}

func TestRedundantAssumptions(t *testing.T) {
	s, v := mk(2)
	s.AddClause(PosLit(v[0]))
	// Assumption already implied at root level.
	if s.Solve(PosLit(v[0]), PosLit(v[1])) != Sat {
		t.Error("implied assumption should still work")
	}
	if !s.ModelValue(v[1]) {
		t.Error("assumed x1 must hold in model")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s, v := mk(3)
	s.AddClause(PosLit(v[0]), PosLit(v[1]))
	if s.Solve() != Sat {
		t.Fatal("phase 1 Sat")
	}
	s.AddClause(NegLit(v[0]))
	if s.Solve() != Sat {
		t.Fatal("phase 2 Sat")
	}
	if !s.ModelValue(v[1]) {
		t.Error("¬x0 forces x1")
	}
	s.AddClause(NegLit(v[1]))
	if s.Solve() != Unsat {
		t.Error("phase 3 should be Unsat")
	}
}

func TestNewVarAfterSolve(t *testing.T) {
	s, v := mk(1)
	s.AddClause(PosLit(v[0]))
	if s.Solve() != Sat {
		t.Fatal("Sat expected")
	}
	w := s.NewVar()
	s.AddClause(NegLit(w))
	if s.Solve() != Sat {
		t.Fatal("still Sat")
	}
	if s.ModelValue(w) {
		t.Error("w must be false")
	}
}

func TestModelEnumeration(t *testing.T) {
	// Enumerate all models of (x0 ∨ x1 ∨ x2) by blocking clauses.
	s, v := mk(3)
	s.AddClause(PosLit(v[0]), PosLit(v[1]), PosLit(v[2]))
	count := 0
	for s.Solve() == Sat {
		count++
		if count > 8 {
			t.Fatal("runaway enumeration")
		}
		block := make([]Lit, 3)
		for i, x := range v {
			block[i] = MkLit(x, s.ModelValue(x))
		}
		s.AddClause(block...)
	}
	if count != 7 {
		t.Errorf("model count = %d, want 7", count)
	}
}

// bruteForce returns whether the clause set is satisfiable over n vars.
func bruteForce(n int, clauses [][]Lit) bool {
	for m := 0; m < 1<<n; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m>>int(l.Var())&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(9) // 4..12 vars
		m := 1 + rng.Intn(5*n)
		var clauses [][]Lit
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		okSoFar := true
		for j := 0; j < m; j++ {
			k := 1 + rng.Intn(3)
			c := make([]Lit, k)
			for x := range c {
				c[x] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				okSoFar = false
			}
		}
		var got Status
		if !okSoFar {
			got = Unsat
		} else {
			got = s.Solve()
		}
		want := bruteForce(n, clauses)
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v bruteforce=%v (n=%d, m=%d, clauses=%v)",
				trial, got, want, n, m, clauses)
		}
		if got == Sat {
			// Verify the model actually satisfies every clause.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.ModelLit(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy %v", trial, c)
				}
			}
		}
	}
}

func TestRandomIncrementalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(6)
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		alive := true
		for phase := 0; phase < 4; phase++ {
			for j := 0; j < 1+rng.Intn(2*n); j++ {
				k := 1 + rng.Intn(3)
				c := make([]Lit, k)
				for x := range c {
					c[x] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
				}
				clauses = append(clauses, c)
				if !s.AddClause(c...) {
					alive = false
				}
			}
			var got Status
			if !alive {
				got = Unsat
			} else {
				got = s.Solve()
				if got == Unsat {
					alive = false
				}
			}
			want := bruteForce(n, clauses)
			if (got == Sat) != want {
				t.Fatalf("trial %d phase %d: solver=%v brute=%v", trial, phase, got, want)
			}
		}
	}
}

func TestRandomAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(6)
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		ok := true
		for j := 0; j < 2*n; j++ {
			k := 1 + rng.Intn(3)
			c := make([]Lit, k)
			for x := range c {
				c[x] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				ok = false
			}
		}
		// A few rounds of random assumptions; the solver state must
		// stay consistent across them.
		for round := 0; round < 3; round++ {
			na := rng.Intn(3)
			assumps := make([]Lit, na)
			seen := map[Var]bool{}
			for x := 0; x < na; x++ {
				v := Var(rng.Intn(n))
				for seen[v] {
					v = Var(rng.Intn(n))
				}
				seen[v] = true
				assumps[x] = MkLit(v, rng.Intn(2) == 1)
			}
			all := append([][]Lit{}, clauses...)
			for _, a := range assumps {
				all = append(all, []Lit{a})
			}
			var got Status
			if !ok {
				got = Unsat
			} else {
				got = s.Solve(assumps...)
			}
			want := bruteForce(n, all)
			if (got == Sat) != want {
				t.Fatalf("trial %d round %d: solver=%v brute=%v assumps=%v clauses=%v",
					trial, round, got, want, assumps, clauses)
			}
			if got == Sat {
				for _, a := range assumps {
					if !s.ModelLit(a) {
						t.Fatalf("trial %d: assumption %v violated in model", trial, a)
					}
				}
			}
		}
	}
}

// TestAssumptionSurvivesDeepBackjump is the regression test for a bug
// where any conflict that backjumped below the assumption decision
// levels (e.g. on learning a unit clause) was misreported as
// assumption failure. A satisfiable instance solved under a fresh,
// unconstrained assumption literal must stay satisfiable no matter how
// much the search learns.
func TestAssumptionSurvivesDeepBackjump(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 7) // Sat, with non-trivial search
	act := PosLit(s.NewVar())
	for round := 0; round < 5; round++ {
		if got := s.Solve(act); got != Sat {
			t.Fatalf("round %d: Solve(act) = %v on satisfiable formula", round, got)
		}
		if !s.ModelLit(act) {
			t.Fatal("assumption not honoured in model")
		}
		// Mimic model enumeration: block the found assignment under act.
		var block []Lit
		block = append(block, act.Not())
		for v := Var(0); v < Var(10); v++ {
			block = append(block, MkLit(v, s.ModelValue(v)))
		}
		s.AddClause(block...)
	}
	if s.Solve() != Sat {
		t.Fatal("formula must stay satisfiable without assumptions")
	}
}

func TestCloneIndependence(t *testing.T) {
	s, v := mk(4)
	s.AddClause(PosLit(v[0]), PosLit(v[1]))
	s.AddClause(NegLit(v[1]), PosLit(v[2]))
	if s.Solve() != Sat {
		t.Fatal("base Sat")
	}
	c := s.Clone()
	// Diverge: original gets ¬x0, clone gets x0.
	s.AddClause(NegLit(v[0]))
	c.AddClause(PosLit(v[0]))
	if s.Solve() != Sat || !s.ModelValue(v[1]) {
		t.Error("original: ¬x0 forces x1")
	}
	if c.Solve() != Sat || !c.ModelValue(v[0]) {
		t.Error("clone: x0 must hold")
	}
	// Push original to Unsat; clone must be unaffected.
	s.AddClause(NegLit(v[1]))
	if s.Solve() != Unsat {
		t.Error("original should now be Unsat")
	}
	if c.Solve() != Sat {
		t.Error("clone poisoned by original's clauses")
	}
}

func TestCloneAfterManyConflicts(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 6) // Sat but with search effort
	if s.Solve() != Sat {
		t.Fatal("PHP(6,6) Sat")
	}
	c := s.Clone()
	if c.Solve() != Sat {
		t.Error("clone should solve too")
	}
	// Clone keeps working after more clauses.
	v := c.NewVar()
	c.AddClause(PosLit(v))
	if c.Solve() != Sat || !c.ModelValue(v) {
		t.Error("clone broken after growth")
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6) // UNSAT, needs more than a handful of conflicts
	s.ConflictBudget = 5
	if got := s.Solve(); got != Unknown {
		t.Skipf("instance solved within tiny budget: %v", got)
	}
	s.ConflictBudget = 0
	if got := s.Solve(); got != Unsat {
		t.Errorf("unbounded solve = %v, want Unsat", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 4)
	s.Solve()
	if s.Stats.Conflicts == 0 || s.Stats.Decisions == 0 || s.Stats.Propagations == 0 {
		t.Errorf("stats not collected: %+v", s.Stats)
	}
	if s.Stats.Solves != 1 {
		t.Errorf("Solves = %d", s.Stats.Solves)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestAddClausePanicsOnUnknownVar(t *testing.T) {
	s, _ := mk(1)
	defer func() {
		if recover() == nil {
			t.Error("want panic for unallocated variable")
		}
	}()
	s.AddClause(PosLit(Var(10)))
}

// TestReduceDBUnderLongSearch forces enough conflicts that the learnt
// clause database is reduced at least once, and checks the solver
// stays correct afterwards (detach/removeWatch paths).
func TestReduceDBUnderLongSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	// A batch of medium random 3-SAT instances near the phase
	// transition: plenty of conflicts, mixed SAT/UNSAT.
	for trial := 0; trial < 6; trial++ {
		const n = 60
		s := New()
		s.NewVars(n)
		var clauses [][]Lit
		ok := true
		nClauses := 4260 * n / 1000 // ~4.26 clauses/var: phase transition
		for j := 0; j < nClauses; j++ {
			c := []Lit{
				MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
				MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
				MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				ok = false
			}
		}
		var got Status
		if ok {
			got = s.Solve()
		} else {
			got = Unsat
		}
		if got == Sat {
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.ModelLit(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model violates %v", trial, c)
				}
			}
		}
		// The solver must remain usable for a follow-up query.
		v := s.NewVar()
		s.AddClause(PosLit(v))
		follow := s.Solve()
		if got == Sat && follow != Sat {
			t.Fatalf("trial %d: follow-up solve %v after Sat", trial, follow)
		}
	}
}

// TestReduceDBDirect exercises the clause-database reduction and the
// detach path explicitly (white-box: the organic trigger needs very
// long searches).
func TestReduceDBDirect(t *testing.T) {
	s := New()
	pigeonhole(s, 7, 6) // UNSAT with a few thousand conflicts
	if s.Solve() != Unsat {
		t.Fatal("PHP(7,6) must be Unsat")
	}
	// Re-prime a satisfiable solver with learnt clauses, then reduce.
	s2 := New()
	pigeonhole(s2, 7, 7)
	if s2.Solve() != Sat {
		t.Fatal("PHP(7,7) must be Sat")
	}
	learnt := len(s2.learnts)
	if learnt == 0 {
		t.Skip("search produced no retained learnt clauses")
	}
	s2.reduceDB()
	if s2.Stats.Removed == 0 && len(s2.learnts) == learnt {
		t.Error("reduceDB removed nothing")
	}
	// Solver must stay correct after reduction.
	if s2.Solve() != Sat {
		t.Error("solver broken after reduceDB")
	}
}

// checkArena verifies the clause store's structural invariants: the
// arena holds exactly the listed clauses, none marked deleted, each
// flagged learnt exactly when it is on the learnt list; every clause
// has exactly two watchers, each on the complement of one of its first
// two literals; every reason is a listed clause.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	watched := map[cref]int{}
	words := 0
	for k, list := range [][]cref{s.clauses, s.learnts} {
		for _, cr := range list {
			hdr := s.arena[int(cr)+hdrSize]
			if hdr&deletedBit != 0 {
				t.Fatalf("listed clause %d is marked deleted", cr)
			}
			if learnt := hdr&learntBit != 0; learnt != (k == 1) {
				t.Fatalf("clause %d: learnt flag %v on the wrong list", cr, learnt)
			}
			watched[cr] = 0
			words += clauseHeader + len(s.lits(cr))
		}
	}
	if words != len(s.arena) {
		t.Fatalf("arena holds %d words, listed clauses %d", len(s.arena), words)
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			n, ok := watched[w.cr]
			if !ok {
				t.Fatalf("watcher on %v points at unlisted clause %d", Lit(l), w.cr)
			}
			watched[w.cr] = n + 1
			if c := s.lits(w.cr); c[0].Not() != Lit(l) && c[1].Not() != Lit(l) {
				t.Fatalf("clause %v sits on the watch list of %v", c, Lit(l))
			}
		}
	}
	for cr, n := range watched {
		if n != 2 {
			t.Fatalf("clause %v has %d watchers, want 2", s.lits(cr), n)
		}
	}
	for v, r := range s.reason {
		if _, ok := watched[r]; r != noRef && !ok {
			t.Fatalf("reason of var %d points at unlisted clause %d", v, r)
		}
	}
}

// TestReduceDBCompactionAndClone drives learnt-clause reduction and
// arena compaction organically: a random 3-SAT instance at the phase
// transition learns thousands of clauses in one Solve. Every model
// must satisfy every clause, and a Clone taken after compaction must
// then solve exactly like the original — same verdicts, models and
// search counters — through further solves that reduce and compact
// again. The final counters are pinned, so a reduction that keeps a
// different half or a compaction that reorders anything shows up.
func TestReduceDBCompactionAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 180
	s := New()
	s.NewVars(n)
	randClause := func() []Lit {
		return []Lit{
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
		}
	}
	var clauses [][]Lit
	for j := 0; j < 426*n/100; j++ {
		c := randClause()
		clauses = append(clauses, c)
		s.AddClause(c...)
	}
	checkModel := func(who string, sv *Solver, assumptions []Lit) {
		t.Helper()
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				sat = sat || sv.ModelLit(l)
			}
			if !sat {
				t.Fatalf("%s: model violates %v", who, c)
			}
		}
		for _, a := range assumptions {
			if !sv.ModelLit(a) {
				t.Fatalf("%s: model violates assumption %v", who, a)
			}
		}
	}
	if s.Solve() != Sat {
		t.Fatal("instance must be Sat")
	}
	checkModel("original", s, nil)
	if s.Stats.Learnt <= 1000 || s.Stats.Removed == 0 {
		t.Fatalf("learnt %d, removed %d: want > 1000 learnt and at least one reduction",
			s.Stats.Learnt, s.Stats.Removed)
	}
	checkArena(t, s)

	c := s.Clone()
	checkArena(t, c)
	removed := s.Stats.Removed
	for q := 0; q < 12; q++ {
		extra := randClause()
		clauses = append(clauses, extra)
		s.AddClause(extra...)
		c.AddClause(extra...)
		var assumptions []Lit
		for k := 0; k < 4; k++ {
			assumptions = append(assumptions, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
		}
		got, want := c.Solve(assumptions...), s.Solve(assumptions...)
		if got != want {
			t.Fatalf("query %d: clone %v, original %v", q, got, want)
		}
		if c.Stats != s.Stats {
			t.Fatalf("query %d: clone stats %+v, original %+v", q, c.Stats, s.Stats)
		}
		if want == Sat {
			checkModel("original", s, assumptions)
			for v := Var(0); v < n; v++ {
				if c.ModelValue(v) != s.ModelValue(v) {
					t.Fatalf("query %d: models differ at var %d", q, v)
				}
			}
		}
		checkArena(t, s)
		checkArena(t, c)
	}
	if s.Stats.Removed == removed {
		t.Error("follow-up solves never reduced the clause database again")
	}
	// Recorded with the solver's earlier pointer-based clause store:
	// reduction and compaction must keep the search itself unchanged.
	want := Statistics{Decisions: 12514, Propagations: 373456, Conflicts: 10220,
		Restarts: 55, Learnt: 10218, Removed: 9398, Solves: 13}
	if s.Stats != want {
		t.Errorf("search trajectory changed:\n got  %+v\n want %+v", s.Stats, want)
	}
}

func TestClausesAccessor(t *testing.T) {
	s, v := mk(3)
	s.AddClause(PosLit(v[0]), PosLit(v[1]))
	s.AddClause(NegLit(v[2])) // unit → root assignment
	cl := s.Clauses()
	if len(cl) != 2 {
		t.Fatalf("Clauses() = %d entries, want 2", len(cl))
	}
	// Mutating the copy must not affect the solver.
	cl[0][0] = PosLit(v[2])
	if s.Solve() != Sat {
		t.Error("solver state corrupted by Clauses() mutation")
	}
}

func TestModelValueOutOfRange(t *testing.T) {
	s, v := mk(1)
	s.AddClause(PosLit(v[0]))
	if s.Solve() != Sat {
		t.Fatal("setup")
	}
	if s.ModelValue(Var(99)) {
		t.Error("out-of-range model value should be false")
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-coloring of a 5-cycle (possible) and of K4 (impossible).
	color := func(edges [][2]int, nNodes, k int) Status {
		s := New()
		vars := make([][]Var, nNodes)
		for i := range vars {
			vars[i] = make([]Var, k)
			cl := make([]Lit, k)
			for c := range vars[i] {
				vars[i][c] = s.NewVar()
				cl[c] = PosLit(vars[i][c])
			}
			s.AddClause(cl...)
		}
		for _, e := range edges {
			for c := 0; c < k; c++ {
				s.AddClause(NegLit(vars[e[0]][c]), NegLit(vars[e[1]][c]))
			}
		}
		return s.Solve()
	}
	cycle5 := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	if color(cycle5, 5, 3) != Sat {
		t.Error("C5 is 3-colorable")
	}
	k4 := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if color(k4, 4, 3) != Unsat {
		t.Error("K4 is not 3-colorable")
	}
}

func BenchmarkSolvePigeonhole8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("PHP(8,7) must be Unsat")
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const n = 100
		s := New()
		for j := 0; j < n; j++ {
			s.NewVar()
		}
		for j := 0; j < 4*n; j++ {
			s.AddClause(
				MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
				MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
				MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			)
		}
		s.Solve()
	}
}
