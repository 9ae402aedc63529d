package sat

import (
	"math/rand"
	"testing"
)

// decisionCase is a small formula with a decision mask and a set of
// assumptions, small enough to check against brute force.
type decisionCase struct {
	n           int
	clauses     [][]Lit
	nonDecision []bool // per variable
	assumptions []Lit
}

// checkDecisionCase solves c twice, under its assumptions and then
// without them, and holds each verdict to brute force. A Sat model must
// be total and satisfy every clause and assumption; after each solve
// the order heap must be a heap of exactly the unassigned decision
// variables.
func checkDecisionCase(t *testing.T, c decisionCase) {
	t.Helper()
	s := New()
	s.NewVars(c.n)
	for v, nd := range c.nonDecision {
		if nd {
			s.SetDecision(Var(v), false)
		}
	}
	ok := true
	for _, cl := range c.clauses {
		ok = s.AddClause(cl...) && ok
	}
	for _, assumps := range [][]Lit{c.assumptions, nil} {
		all := append([][]Lit(nil), c.clauses...)
		for _, a := range assumps {
			all = append(all, []Lit{a})
		}
		want := bruteForce(c.n, all)
		got := Unsat
		if ok {
			got = s.Solve(assumps...)
		}
		if (got == Sat) != want {
			t.Fatalf("solver %v, brute force sat=%v (n=%d, non-decision %v, assumptions %v, clauses %v)",
				got, want, c.n, c.nonDecision, assumps, c.clauses)
		}
		checkOrderHeap(t, s)
		if got != Sat {
			continue
		}
		for v := 0; v < c.n; v++ {
			if s.model[v] == lUndef {
				t.Fatalf("model leaves variable %d unassigned (non-decision %v, clauses %v)",
					v, c.nonDecision, c.clauses)
			}
		}
		for _, cl := range all {
			sat := false
			for _, l := range cl {
				sat = sat || s.ModelLit(l)
			}
			if !sat {
				t.Fatalf("model violates %v (non-decision %v, clauses %v)", cl, c.nonDecision, c.clauses)
			}
		}
	}
}

// checkOrderHeap checks, at the root level, that the order heap holds
// exactly the unassigned decision variables, in heap order.
func checkOrderHeap(t *testing.T, s *Solver) {
	t.Helper()
	h := &s.order
	for i, v := range h.data {
		if !s.decision[v] {
			t.Fatalf("order heap holds non-decision variable %d", v)
		}
		if h.pos[v] != int32(i) {
			t.Fatalf("heap position of %d is %d, want %d", v, h.pos[v], i)
		}
		if i > 0 && s.activity[h.data[(i-1)/2]] < s.activity[v] {
			t.Fatalf("heap order broken at index %d", i)
		}
	}
	for v := range s.level {
		if s.decision[v] && s.value[PosLit(Var(v))] == lUndef && !h.inHeap(Var(v)) {
			t.Fatalf("unassigned decision variable %d is not in the order heap", v)
		}
	}
}

// randomDecisionCase draws a formula over 1..12 variables. Half the
// time its first variables are inputs and the rest Tseitin-defined
// gates, made non-decision variables as cnf.Encode makes a DIP copy's
// gates, so the decision variables imply them; otherwise the
// non-decision variables are a random mask over random clauses, which
// the decision variables need not imply, and which only the fallback
// branch of pickBranchVar can complete.
func randomDecisionCase(rng *rand.Rand) decisionCase {
	c := decisionCase{n: 1 + rng.Intn(12)}
	c.nonDecision = make([]bool, c.n)
	randLit := func(below int) Lit { return MkLit(Var(rng.Intn(below)), rng.Intn(2) == 1) }
	if inputs := 1 + rng.Intn(c.n); rng.Intn(2) == 0 && inputs < c.n {
		for z := inputs; z < c.n; z++ {
			a, b, zl := randLit(z), randLit(z), PosLit(Var(z))
			if rng.Intn(2) == 0 { // z = a ∧ b
				c.clauses = append(c.clauses, []Lit{zl.Not(), a}, []Lit{zl.Not(), b}, []Lit{zl, a.Not(), b.Not()})
			} else { // z = a ⊕ b
				c.clauses = append(c.clauses, []Lit{zl.Not(), a, b}, []Lit{zl.Not(), a.Not(), b.Not()},
					[]Lit{zl, a.Not(), b}, []Lit{zl, a, b.Not()})
			}
			c.nonDecision[z] = true
		}
	} else {
		for v := range c.nonDecision {
			c.nonDecision[v] = rng.Intn(2) == 0
		}
	}
	for j := rng.Intn(3 * c.n); j > 0; j-- {
		cl := make([]Lit, 1+rng.Intn(3))
		for x := range cl {
			cl[x] = randLit(c.n)
		}
		c.clauses = append(c.clauses, cl)
	}
	for j := rng.Intn(4); j > 0; j-- {
		c.assumptions = append(c.assumptions, randLit(c.n))
	}
	return c
}

func TestDecisionVarsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 2000; trial++ {
		checkDecisionCase(t, randomDecisionCase(rng))
	}
}

// TestSetDecisionRoundTrip takes every variable out of the heap, so
// every decision is the fallback's, then puts one back.
func TestSetDecisionRoundTrip(t *testing.T) {
	s, v := mk(3)
	for _, x := range v {
		s.SetDecision(x, false)
	}
	s.AddClause(PosLit(v[0]), PosLit(v[1]))
	if s.Solve() != Sat || !s.ModelValue(v[0]) && !s.ModelValue(v[1]) {
		t.Fatal("want a model with x1 or x2")
	}
	if s.order.size() != 0 {
		t.Fatalf("heap holds %d variables, want none", s.order.size())
	}
	s.SetDecision(v[1], true)
	checkOrderHeap(t, s)
	if !s.order.inHeap(v[1]) {
		t.Fatal("SetDecision(v, true) must put v back in the heap")
	}
}

// TestCloneKeepsDecisionFlags checks that a clone of a solver with
// non-decision variables searches exactly like the original: the same
// decisions, counters and models through a run of further solves.
func TestCloneKeepsDecisionFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 150
	s := New()
	s.NewVars(n)
	for v := 0; v < n; v += 3 {
		s.SetDecision(Var(v), false)
	}
	randClause := func() []Lit {
		return []Lit{
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
		}
	}
	for j := 0; j < 4*n; j++ {
		s.AddClause(randClause()...)
	}
	if s.Solve() != Sat {
		t.Fatal("instance must be Sat")
	}
	c := s.Clone()
	for q := 0; q < 10; q++ {
		extra := randClause()
		s.AddClause(extra...)
		c.AddClause(extra...)
		var assumptions []Lit
		for k := 0; k < 3; k++ {
			assumptions = append(assumptions, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
		}
		got, want := c.Solve(assumptions...), s.Solve(assumptions...)
		if got != want {
			t.Fatalf("query %d: clone %v, original %v", q, got, want)
		}
		if c.Snapshot() != s.Snapshot() {
			t.Fatalf("query %d: clone %+v, original %+v", q, c.Snapshot(), s.Snapshot())
		}
		if want == Sat {
			for v := Var(0); v < n; v++ {
				if c.ModelValue(v) != s.ModelValue(v) {
					t.Fatalf("query %d: models differ at variable %d", q, v)
				}
			}
		}
		checkOrderHeap(t, s)
		checkOrderHeap(t, c)
	}
	if s.Stats.Conflicts < 100 {
		t.Fatalf("only %d conflicts: the instance does not exercise backtracking", s.Stats.Conflicts)
	}
}
