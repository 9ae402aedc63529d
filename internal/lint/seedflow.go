package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SeedFlow closes the provenance gap globalrand leaves open:
// globalrand forbids the global source but says nothing about where
// the seed of an explicit rand.NewSource(x) came from, however the
// source is wrapped afterwards. SeedFlow vets every seed position — an argument bound to a seed-named parameter (which covers
// rand.NewSource itself, deriveSeed, newSeededRand, MeasureBER, …),
// and assignments or composite-literal fields whose target is
// seed-named — and requires the value to trace back to run
// coordinates:
//
//   - a whole-expression constant is sanctioned (a fixed literal seed
//     is auditable exactly where it stands);
//   - otherwise the expression is decomposed through arithmetic,
//     bitwise ops, unary ^/-, parens and integer conversions; at least
//     one leaf must be a seed root — a seed-named identifier/selector
//     or a call to a seed-named derivation function (deriveSeed-style)
//     — and no leaf may be a call to anything else, which would hide
//     the provenance behind an opaque computation.
//
// Constants and plain identifiers inside a derivation are neutral:
// they are the coordinates (`opts.Seed + int64(i)*7919` is fine, the
// root is opts.Seed). The invariant this guards is the
// seed-derivation scheme in docs/PERFORMANCE.md: every *rand.Rand in
// the tree must be reproducible from the run's base seed and
// coordinates alone.
type SeedFlow struct{}

func (SeedFlow) Name() string { return "seedflow" }

func (SeedFlow) Doc() string {
	return "every seed value (argument to a seed-named parameter, assignment to a " +
		"seed-named target) must be a fixed constant or derive visibly from a " +
		"seed-named input or deriveSeed-style call; opaque computations hide provenance"
}

func (SeedFlow) Applies(pkgPath string) bool {
	return pkgPath == "statsat" ||
		inScope(pkgPath, "statsat/internal", "statsat/examples")
}

func (c SeedFlow) Run(p *Package, _ *Module) []Finding {
	var out []Finding
	vet := func(e ast.Expr) {
		// Seeds are integers; a seed-named map/struct/func value (the
		// linter's own seededNew table, say) is not a seed position.
		if tv, ok := p.Info.Types[e]; !ok || !isIntegerType(tv.Type) {
			return
		}
		if f, bad := vetSeedExpr(p, e); bad {
			f.Check = c.Name()
			out = append(out, f)
		}
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				sig := callSignature(p, x)
				if sig == nil || x.Ellipsis.IsValid() {
					return true
				}
				for i := 0; i < sig.Params().Len() && i < len(x.Args); i++ {
					if sig.Variadic() && i == sig.Params().Len()-1 {
						break
					}
					if seedNamed(sig.Params().At(i).Name()) {
						vet(x.Args[i])
					}
				}
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, lhs := range x.Lhs {
					if seedNamed(exprBaseName(lhs)) {
						vet(x.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) != len(x.Values) {
					return true
				}
				for i, name := range x.Names {
					if seedNamed(name.Name) {
						vet(x.Values[i])
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := x.Key.(*ast.Ident); ok && seedNamed(key.Name) {
					vet(x.Value)
				}
			}
			return true
		})
	}
	return out
}

// isIntegerType reports whether t is (or aliases) a basic integer.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// seedNamed reports whether a parameter/variable/field name marks a
// seed position.
func seedNamed(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// exprBaseName extracts the name an assignment target answers to: the
// identifier, or the final selector component.
func exprBaseName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// callSignature resolves the signature of the called function,
// skipping type conversions.
func callSignature(p *Package, call *ast.CallExpr) *types.Signature {
	if tv, ok := p.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		return nil
	}
	f := funcObj(p.Info, call)
	if f == nil {
		return nil
	}
	sig, _ := f.Type().(*types.Signature)
	return sig
}

// vetSeedExpr checks one seed expression and returns the finding (with
// Pos and Message set, Check left blank) plus whether it is bad.
func vetSeedExpr(p *Package, e ast.Expr) (Finding, bool) {
	// A whole-expression constant is sanctioned.
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		return Finding{}, false
	}
	root, opaque := decomposeSeed(p, ast.Unparen(e))
	pos := p.Fset.Position(e.Pos())
	if opaque != "" {
		return Finding{
			Pos: pos,
			Message: "seed derived through " + opaque + ", which hides its provenance; " +
				"derive seeds from run coordinates via a seed-named input or a " +
				"deriveSeed-style computation",
		}, true
	}
	if !root {
		return Finding{
			Pos: pos,
			Message: "seed value has no visible provenance from run coordinates; " +
				"derive it from a seed-named input or a deriveSeed-style call " +
				"(or use a fixed literal, which is auditable in place)",
		}, true
	}
	return Finding{}, false
}

// decomposeSeed walks a seed expression. root reports that a
// seed-named leaf (identifier, selector, or seed-named call) was
// found; opaque names the first non-seed call encountered, which
// poisons the expression.
func decomposeSeed(p *Package, e ast.Expr) (root bool, opaque string) {
	// A seed-named name roots the derivation even when it is a named
	// constant (`seedBase + int64(r)`); anonymous constant
	// sub-expressions are neutral coordinates.
	switch x := e.(type) {
	case *ast.Ident:
		return seedNamed(x.Name), ""
	case *ast.SelectorExpr:
		return seedNamed(x.Sel.Name), ""
	}
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		return false, ""
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return decomposeSeed(p, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.XOR || x.Op == token.SUB || x.Op == token.ADD {
			return decomposeSeed(p, x.X)
		}
		return false, ""
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.XOR, token.AND, token.OR, token.AND_NOT, token.SHL, token.SHR:
			r1, o1 := decomposeSeed(p, x.X)
			if o1 != "" {
				return false, o1
			}
			r2, o2 := decomposeSeed(p, x.Y)
			if o2 != "" {
				return false, o2
			}
			return r1 || r2, ""
		}
		return false, ""
	case *ast.IndexExpr:
		// seeds[i]: the base carries the provenance.
		return decomposeSeed(p, ast.Unparen(x.X))
	case *ast.CallExpr:
		// Integer conversions are transparent.
		if tv, ok := p.Info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() {
			if len(x.Args) == 1 {
				return decomposeSeed(p, ast.Unparen(x.Args[0]))
			}
			return false, ""
		}
		// A call to a seed-named function (deriveSeed, newSeededRand,
		// DeriveLockSeed, …) is itself the root; its arguments are the
		// derivation's coordinates and are not descended into.
		if f := funcObj(p.Info, x); f != nil {
			if seedNamed(f.Name()) {
				return true, ""
			}
			return false, "call to " + f.Name()
		}
		return false, "a function call"
	}
	return false, ""
}
