package lint

import (
	"go/ast"
	"go/types"
)

// GlobalRand forbids the process-global math/rand source inside
// internal/ and examples/. Every random decision in the attack and the
// experiment harness must flow from an explicit seeded *rand.Rand
// (parameter or struct field) derived from run coordinates, or the
// scheduler's byte-identical-output-at-any-worker-count guarantee
// silently breaks: the global source is shared mutable state whose
// consumption order depends on goroutine interleaving. Where the seed
// of an explicit source comes from is seedflow's business. Examples
// are in scope because they are the copy-paste templates users start
// from: a global-rand example teaches the exact anti-pattern the check
// exists to keep out.
type GlobalRand struct{}

func (GlobalRand) Name() string { return "globalrand" }

func (GlobalRand) Doc() string {
	return "forbids package-level math/rand functions; all randomness must flow " +
		"from an explicit seeded *rand.Rand so output is deterministic at any worker count"
}

func (GlobalRand) Applies(pkgPath string) bool {
	return inScope(pkgPath, "statsat/internal", "statsat/examples")
}

// randConstructors are the package-level functions that do NOT touch
// the global source (math/rand and math/rand/v2 spellings).
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func (c GlobalRand) Run(p *Package, _ *Module) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			f, ok := p.Info.Uses[id].(*types.Func)
			if !ok || f.Pkg() == nil || !isRandPkg(f.Pkg().Path()) || randConstructors[f.Name()] {
				return true
			}
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on *rand.Rand / Source are fine
			}
			out = append(out, Finding{
				Pos:   p.Fset.Position(id.Pos()),
				Check: c.Name(),
				Message: "use of global " + f.Pkg().Path() + "." + f.Name() +
					"; randomness must flow from an explicit seeded *rand.Rand " +
					"derived from run coordinates",
			})
			return true
		})
	}
	return out
}
