package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxDIMACSVars bounds the variable count ParseDIMACS accepts; a bare
// literal like "100000000" must not allocate gigabytes.
const MaxDIMACSVars = 1 << 20

// ParseDIMACS reads a CNF formula in DIMACS format into a fresh
// solver. The "p cnf <vars> <clauses>" header is honoured for variable
// pre-allocation but the clause count is not enforced (real-world
// files frequently lie). Comment lines ("c ...") and the optional "%"
// trailer used by some benchmark suites are skipped. Formulas beyond
// MaxDIMACSVars variables are rejected.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var clause []Lit
	lineNo := 0
	sawPercent := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		if line[0] == '%' {
			sawPercent = true
			continue
		}
		if sawPercent && line == "0" {
			continue // "%\n0" benchmark trailer
		}
		if line[0] == 'p' {
			f := strings.Fields(line)
			if len(f) < 4 || f[1] != "cnf" {
				return nil, fmt.Errorf("sat: dimacs line %d: malformed header %q", lineNo, line)
			}
			n, err := strconv.Atoi(f[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("sat: dimacs line %d: bad variable count", lineNo)
			}
			if n > MaxDIMACSVars {
				return nil, fmt.Errorf("sat: dimacs line %d: %d variables exceed limit %d", lineNo, n, MaxDIMACSVars)
			}
			s.NewVars(n)
			continue
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: dimacs line %d: bad literal %q", lineNo, tok)
			}
			if v == 0 {
				s.AddClause(clause...)
				clause = clause[:0]
				continue
			}
			idx := v
			if idx < 0 {
				idx = -idx
			}
			if idx > MaxDIMACSVars {
				return nil, fmt.Errorf("sat: dimacs line %d: literal %d exceeds variable limit %d", lineNo, v, MaxDIMACSVars)
			}
			// Tolerate files whose header undercounts (or is absent).
			for idx > s.NumVars() {
				s.NewVar()
			}
			clause = append(clause, MkLit(Var(idx-1), v < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sat: dimacs read: %w", err)
	}
	if len(clause) > 0 {
		// Final clause without terminating 0 — accept it.
		s.AddClause(clause...)
	}
	return s, nil
}

// WriteDIMACS dumps the solver's current problem clauses (after
// top-level simplification) plus its root-level unit assignments in
// DIMACS format. Learnt clauses are not emitted.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if !s.okay {
		// The formula is inconsistent at the root; an empty clause
		// preserves that through the round trip.
		fmt.Fprintf(bw, "p cnf %d 1\n0\n", s.NumVars())
		return bw.Flush()
	}
	units := 0
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			units++
		}
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(s.clauses)+units)
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			fmt.Fprintf(bw, "%s 0\n", l)
		}
	}
	for _, cr := range s.clauses {
		for _, l := range s.lits(cr) {
			fmt.Fprintf(bw, "%s ", l)
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}
