package sat

import (
	"strings"
	"testing"
)

// FuzzParseDIMACS exercises the DIMACS reader for panics; any formula
// it accepts must solve without crashing, and a Sat verdict's model
// must actually satisfy every retained clause.
func FuzzParseDIMACS(f *testing.F) {
	seeds := []string{
		"p cnf 3 2\n1 -3 0\n2 3 -1 0\n",
		"p cnf 1 2\n1 0\n-1 0\n",
		"c comment\n1 2 0",
		"p cnf 0 0\n",
		"%\n0\n",
		"p cnf 2 1\n1 -2",
		"1 1 1 0\n-1 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		s, err := ParseDIMACS(strings.NewReader(src))
		if err != nil {
			return
		}
		if s.NumVars() > 1<<16 {
			return // header-declared monsters: skip solving
		}
		clauses := s.Clauses()
		s.ConflictBudget = 2000
		if s.Solve() != Sat {
			return
		}
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				if s.ModelLit(l) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("model does not satisfy clause %v", c)
			}
		}
	})
}

// FuzzSolve decodes a small formula, a decision mask and assumptions
// from the fuzzed bytes and holds the solver to brute force
// (checkDecisionCase). Byte 0 gives the variable count (1..12), bytes
// 1–2 the non-decision mask, byte 3 the number of assumptions (0..3);
// then come the assumption literals, then clauses, each a length byte
// (1..4 literals) followed by its literals. A literal byte b names
// variable (b>>1) mod n, negated when b is odd.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 0, 2, 1, 3, 0, 1, 2})
	f.Add([]byte{3, 6, 0, 1, 5, 2, 1, 2, 1, 3, 0, 1, 2, 4})
	f.Add([]byte{11, 0xff, 0x07, 2, 3, 8, 2, 0, 2, 2, 1, 3, 3, 20, 21, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 256 {
			return
		}
		c := decisionCase{n: 1 + int(data[0])%12}
		mask := int(data[1]) | int(data[2])<<8
		c.nonDecision = make([]bool, c.n)
		for v := range c.nonDecision {
			c.nonDecision[v] = mask>>v&1 == 1
		}
		lit := func(b byte) Lit { return MkLit(Var(int(b>>1)%c.n), b&1 == 1) }
		rest := data[4:]
		for k := int(data[3]) % 4; k > 0 && len(rest) > 0; k-- {
			c.assumptions = append(c.assumptions, lit(rest[0]))
			rest = rest[1:]
		}
		for len(rest) > 1 {
			k := min(1+int(rest[0])%4, len(rest)-1)
			cl := make([]Lit, k)
			for i := range cl {
				cl[i] = lit(rest[1+i])
			}
			c.clauses = append(c.clauses, cl)
			rest = rest[1+k:]
		}
		checkDecisionCase(t, c)
	})
}
