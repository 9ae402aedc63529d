// Package lint is a project-specific static-analysis pass built
// entirely on the standard library (go/parser, go/ast, go/types). It
// machine-checks the conventions the repo's headline guarantees rest
// on — byte-identical experiment output at any worker count, the
// BlockQuerier buffer-validity contract, and zero-allocation hot paths
// when tracing is off — which until now were enforced only by reviewer
// vigilance. See docs/LINTING.md for the catalogue of checks, the
// invariant each one guards, and the suppression syntax.
//
// The architecture is deliberately small: a Check inspects one
// type-checked Package and reports Findings; Run loads packages,
// applies every check whose scope matches, filters findings through
// //lint:ignore directives, and returns the remainder sorted by
// position. cmd/statlint is a thin driver over Run.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the canonical driver output format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Package is one parsed and type-checked package, the unit a Check
// inspects.
type Package struct {
	// Path is the import path ("statsat/internal/core").
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info
}

// Check is one self-contained rule. Checks must be stateless across
// packages: Run may be called for many packages in any order.
type Check interface {
	// Name is the short identifier used in output and in
	// //lint:ignore directives ("globalrand").
	Name() string
	// Doc is a one-paragraph description of the invariant guarded.
	Doc() string
	// Applies reports whether the check inspects the package with the
	// given import path. Scoping lives here so the driver stays
	// generic.
	Applies(pkgPath string) bool
	// Run inspects p and returns raw findings; suppression directives
	// are applied by the framework, not by individual checks. m is the
	// module-wide view (call graph + per-function summaries) built once
	// over every loaded package; per-package pattern checks may ignore
	// it.
	Run(p *Package, m *Module) []Finding
}

// DefaultChecks returns the full catalogue in a stable order.
func DefaultChecks() []Check {
	return []Check{
		GlobalRand{},
		WallTime{},
		BufRetain{},
		TraceGate{},
		FloatEq{},
		CtxFlow{},
		LockScope{},
		SeedFlow{},
	}
}

// fixtureScope marks the lint fixture tree: every check also applies
// there so the harness and the driver exercise real scoping end to
// end. Fixtures for one check are written to be clean under all the
// others.
const fixtureScope = "internal/lint/testdata"

// inScope reports whether pkgPath is the module-internal path prefix
// (or exactly it), or part of the fixture tree.
func inScope(pkgPath string, prefixes ...string) bool {
	if strings.Contains(pkgPath, fixtureScope) {
		return true
	}
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	check  string
	reason string
	line   int
	pos    token.Position
	used   bool
}

// parseIgnores collects //lint:ignore directives from a file. The
// directive suppresses matching findings on its own line (trailing
// comment) or on the line immediately below (standalone comment line).
// A directive without a reason is itself reported as a finding — an
// unexplained suppression is exactly the silent drift the pass exists
// to prevent.
func parseIgnores(fset *token.FileSet, file *ast.File) (dirs []*ignoreDirective, malformed []Finding) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:ignore") {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
			fields := strings.SplitN(rest, " ", 2)
			if len(fields) < 2 || strings.TrimSpace(fields[1]) == "" || fields[0] == "" {
				malformed = append(malformed, Finding{
					Pos:   pos,
					Check: "lint",
					Message: "malformed //lint:ignore directive: want " +
						"\"//lint:ignore <check> <reason>\" with a non-empty reason",
				})
				continue
			}
			dirs = append(dirs, &ignoreDirective{
				check:  fields[0],
				reason: strings.TrimSpace(fields[1]),
				line:   pos.Line,
				pos:    pos,
			})
		}
	}
	return dirs, malformed
}

// suppressed reports whether f is covered by a directive: same check
// name, same file, and the directive sits on the finding's line or the
// line above it.
func suppressed(f Finding, dirs []*ignoreDirective) bool {
	for _, d := range dirs {
		if d.check != f.Check || d.pos.Filename != f.Pos.Filename {
			continue
		}
		if d.line == f.Pos.Line || d.line == f.Pos.Line-1 {
			d.used = true
			return true
		}
	}
	return false
}

// RunChecks applies every matching check to every package, filters
// suppressed findings, and returns the rest sorted by position.
// Malformed and unused //lint:ignore directives are reported under the
// pseudo-check "lint".
func RunChecks(pkgs []*Package, checks []Check) []Finding {
	m := NewModule(pkgs)
	var out []Finding
	for _, p := range pkgs {
		var dirs []*ignoreDirective
		for _, file := range p.Files {
			d, bad := parseIgnores(p.Fset, file)
			dirs = append(dirs, d...)
			out = append(out, bad...)
		}
		var raw []Finding
		for _, c := range checks {
			if !c.Applies(p.Path) {
				continue
			}
			raw = append(raw, c.Run(p, m)...)
		}
		for _, f := range raw {
			if !suppressed(f, dirs) {
				out = append(out, f)
			}
		}
		for _, d := range dirs {
			if !d.used {
				out = append(out, Finding{
					Pos:   d.pos,
					Check: "lint",
					Message: fmt.Sprintf("unused //lint:ignore %s directive: no %s finding on this or the next line",
						d.check, d.check),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// walkStack traverses every file of p, calling fn with each node and
// the stack of its ancestors (outermost first, not including the node
// itself). It is the parent-aware traversal the guard-dominance
// analysis in tracegate and the retention analysis in bufretain need;
// stdlib ast.Inspect alone does not expose parents.
func walkStack(p *Package, fn func(n ast.Node, stack []ast.Node)) {
	for _, file := range p.Files {
		inspectStack(file, fn)
	}
}

// inspectStack is walkStack for a single subtree: fn receives each node
// with the stack of its ancestors within root (outermost first).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// funcObj resolves the called function/method object of a call
// expression, or nil if the callee is not a known func (e.g. a
// conversion or a func-typed variable).
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
