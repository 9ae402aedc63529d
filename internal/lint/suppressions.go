package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Suppression is one //lint:ignore directive found in the loaded
// packages, as reported by the `statlint -suppressions` inventory.
type Suppression struct {
	Pos    token.Position
	Check  string // the suppressed check name
	Reason string
}

// String renders one inventory row.
func (s Suppression) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", s.Pos.Filename, s.Pos.Line, s.Check, s.Reason)
}

// SuppressionReport inventories every //lint:ignore directive in pkgs.
// Well-formed entries come back sorted by position for review;
// malformed directives and entries naming a check that no longer
// exists (the stale-after-a-rename failure the -suppressions CI gate
// exists to catch) come back as findings.
func SuppressionReport(pkgs []*Package, checks []Check) ([]Suppression, []Finding) {
	valid := map[string]bool{}
	for _, c := range checks {
		valid[c.Name()] = true
	}
	var entries []Suppression
	var bad []Finding
	for _, p := range pkgs {
		for _, file := range p.Files {
			dirs, malformed := parseIgnores(p.Fset, file)
			bad = append(bad, malformed...)
			for _, d := range dirs {
				entries = append(entries, Suppression{Pos: d.pos, Check: d.check, Reason: d.reason})
				if !valid[d.check] {
					bad = append(bad, Finding{
						Pos:   d.pos,
						Check: "lint",
						Message: fmt.Sprintf("//lint:ignore names unknown check %q "+
							"(stale after a check rename or removal?)", d.check),
					})
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Pos, entries[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	sort.Slice(bad, func(i, j int) bool {
		a, b := bad[i].Pos, bad[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return entries, bad
}
