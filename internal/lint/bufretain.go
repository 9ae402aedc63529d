package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufRetain enforces the BlockQuerier buffer-validity contract from
// the PR 2 allocation diet: the slices returned (or filled) by
// SignalProbsInto, UncertaintiesInto, EvalNoisyBlockInto and
// QueryBlock alias the callee's reusable scratch and are invalid after
// the next call on the same receiver. Retaining such a slice — storing
// it into a struct field, a package-level variable, a map/slice
// reachable from one, a composite literal, or appending it into a
// retained destination — produces silently stale probability vectors,
// exactly the quiet-corruption failure mode that wrecks SAT-attack
// conclusions without crashing. Local-variable reuse
// (buf = SignalProbsInto(..., buf)) is the intended idiom and stays
// legal.
type BufRetain struct{}

func (BufRetain) Name() string { return "bufretain" }

func (BufRetain) Doc() string {
	return "flags storing a SignalProbsInto/UncertaintiesInto/" +
		"EvalNoisyBlockInto/QueryBlock result " +
		"into a struct field, global, composite literal or retained append target " +
		"without copying; these buffers are invalid after the next call"
}

func (BufRetain) Applies(string) bool { return true }

// bufReturningFuncs name the functions/methods whose results alias
// reusable internal buffers. Matching is by name across the module so
// interface methods (BlockQuerier implementations) are covered too.
var bufReturningFuncs = map[string]bool{
	"SignalProbsInto":    true,
	"UncertaintiesInto":  true,
	"EvalNoisyBlockInto": true,
	"QueryBlock":         true,
}

// aliasesBuf reports whether a call returns a buffer alias: a direct
// call to one of the named contract functions, or — through the module
// summaries — a wrapper whose return value is such an alias.
func aliasesBuf(m *Module, f *types.Func) bool {
	if bufReturningFuncs[f.Name()] {
		return true
	}
	if s := m.SummaryOf(f); s != nil && s.ReturnsBufAlias {
		return true
	}
	return false
}

func (c BufRetain) Run(p *Package, m *Module) []Finding {
	var out []Finding
	walkStack(p, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		f := funcObj(p.Info, call)
		if f == nil || !aliasesBuf(m, f) {
			return
		}
		if target := m.retainedAt(p, call, stack); target != "" {
			out = append(out, Finding{
				Pos:   p.Fset.Position(call.Pos()),
				Check: c.Name(),
				Message: "result of " + f.Name() + " aliases a reusable internal buffer (invalid " +
					"after the next call); copy it before storing into " + target,
			})
		}
	})
	return out
}

// retainedAt walks outward from val — a buffer-aliasing call here, a
// parameter use in the summary's retention pass — through the
// value-preserving wrappers (parens, append chains, &, composite
// literal values) to the construct that consumes it, and names where
// the value outlives the call: a struct field, a package-level
// variable, a composite literal, or an argument a module callee
// retains. It returns "" when the value stays local.
func (m *Module) retainedAt(p *Package, val ast.Node, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr: // value-preserving: keep walking
		case *ast.UnaryExpr:
			if parent.Op != token.AND {
				return ""
			}
		case *ast.KeyValueExpr:
			if parent.Key == val {
				return ""
			}
		case *ast.CompositeLit:
			return "a composite literal"
		case *ast.CallExpr:
			// The value flows through append in two shapes: as the
			// first argument (append may return the same backing
			// array) and as a non-spread element of a slice-of-slices
			// (the slice header itself is stored). append(dst, buf...)
			// however COPIES the elements — the sanctioned copy idiom.
			if id, ok := ast.Unparen(parent.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin {
					if parent.Ellipsis.IsValid() && sameExpr(parent.Args[len(parent.Args)-1], val) {
						return ""
					}
					break
				}
			}
			// Any other call consumes the value behind an API boundary,
			// which the module summaries see through: if the callee
			// retains that argument position, the value escapes just as
			// surely as a direct store.
			if g := funcObj(p.Info, parent); g != nil {
				if gs := m.SummaryOf(g); gs != nil {
					for argIdx, arg := range parent.Args {
						if sameExpr(arg, val) && gs.RetainsParam[argIdx] {
							return "an argument of " + g.Name() + ", which retains it"
						}
					}
				}
			}
			return ""
		case *ast.AssignStmt:
			return assignTarget(p, parent, val)
		case *ast.ValueSpec:
			// var g = SignalProbsInto(...): retained iff the spec
			// declares package-level variables.
			for _, name := range parent.Names {
				if obj := p.Info.Defs[name]; obj != nil && obj.Parent() == p.Types.Scope() {
					return "package-level var " + name.Name
				}
			}
			return ""
		default:
			return ""
		}
		val = stack[i]
	}
	return ""
}

// sameExpr reports whether a is val modulo parentheses.
func sameExpr(a ast.Expr, val ast.Node) bool {
	return a == val || ast.Unparen(a) == val
}

// assignTarget names the LHS of assign that receives val when that
// destination outlives the statement (struct field, package-level var,
// or element of either), or returns "".
func assignTarget(p *Package, assign *ast.AssignStmt, val ast.Node) string {
	for i, rhs := range assign.Rhs {
		if sameExpr(rhs, val) && i < len(assign.Lhs) {
			return retainedDest(p, assign.Lhs[i])
		}
	}
	return ""
}

// retainedDest names expr when storing into it retains the value
// beyond the enclosing statement's scope: a struct field, a
// package-level variable, or an index into either. It returns ""
// otherwise.
func retainedDest(p *Package, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return "struct field " + e.Sel.Name
		}
		// Qualified package-level var (pkg.V).
		if v, ok := p.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return "package-level var " + e.Sel.Name
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[e].(*types.Var); ok && v.Parent() == p.Types.Scope() {
			return "package-level var " + e.Name
		}
	case *ast.IndexExpr:
		return retainedDest(p, e.X)
	case *ast.StarExpr:
		return retainedDest(p, e.X)
	}
	return ""
}
