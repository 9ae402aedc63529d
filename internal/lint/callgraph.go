package lint

import (
	"go/ast"
	"go/types"
)

// Module is the cross-package view the interprocedural checks consume:
// every named function/method declared in the analyzed packages, the
// call edges between them, and per-function behavioral summaries
// (Summary) computed bottom-up over strongly connected components. It
// is deliberately module-local — edges into the standard library or
// through interface/func-typed values are not resolved; the summary
// rules treat such calls conservatively (see summary.go).
type Module struct {
	// Funcs indexes every function and method with a body declared in
	// the analyzed packages.
	Funcs map[*types.Func]*FuncInfo
}

// FuncInfo is one call-graph node: a declared function or method, its
// resolved module-internal callees, and its computed Summary.
type FuncInfo struct {
	Decl    *ast.FuncDecl
	Pkg     *Package
	Callees []*types.Func
	Sum     *Summary
}

// NewModule builds the call graph over pkgs and computes every
// function's Summary bottom-up: Tarjan's algorithm emits SCCs in
// callee-first order, and within each SCC the (monotone) summaries are
// iterated to a fixpoint, so mutual recursion converges.
func NewModule(pkgs []*Package) *Module {
	m := &Module{Funcs: map[*types.Func]*FuncInfo{}}
	// Index declarations in deterministic (source) order.
	var order []*FuncInfo
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				f, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Decl: fd, Pkg: p, Sum: &Summary{}}
				m.Funcs[f] = fi
				order = append(order, fi)
			}
		}
	}
	// Module-internal call edges.
	for _, fi := range order {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if g := funcObj(fi.Pkg.Info, call); g != nil && m.Funcs[g] != nil {
					fi.Callees = append(fi.Callees, g)
				}
			}
			return true
		})
	}
	// Bottom-up summary computation over SCCs.
	for _, scc := range m.sccs(order) {
		for changed := true; changed; {
			changed = false
			for _, fi := range scc {
				ns := m.summarize(fi.Pkg, fi.Decl.Body)
				m.retentionPass(fi.Pkg, fi.Decl, ns)
				if !ns.equal(fi.Sum) {
					fi.Sum = ns
					changed = true
				}
			}
		}
	}
	return m
}

// SummaryOf returns the summary for a resolved function, or nil for
// functions outside the analyzed set (stdlib, interface methods,
// bodiless declarations).
func (m *Module) SummaryOf(f *types.Func) *Summary {
	if fi := m.Funcs[f]; fi != nil {
		return fi.Sum
	}
	return nil
}

// sccs returns the strongly connected components of the call graph in
// reverse topological (callee-first) order — the order Tarjan's
// algorithm naturally pops them.
func (m *Module) sccs(order []*FuncInfo) [][]*FuncInfo {
	type nodeState struct {
		index, lowlink int
		onStack        bool
	}
	index := 1
	states := map[*FuncInfo]*nodeState{}
	var stack []*FuncInfo
	var out [][]*FuncInfo

	var strongconnect func(fi *FuncInfo)
	strongconnect = func(fi *FuncInfo) {
		st := &nodeState{index: index, lowlink: index, onStack: true}
		states[fi] = st
		index++
		stack = append(stack, fi)
		for _, g := range fi.Callees {
			gi := m.Funcs[g]
			gs := states[gi]
			if gs == nil {
				strongconnect(gi)
				if gl := states[gi].lowlink; gl < st.lowlink {
					st.lowlink = gl
				}
			} else if gs.onStack && gs.index < st.lowlink {
				st.lowlink = gs.index
			}
		}
		if st.lowlink == st.index {
			var scc []*FuncInfo
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				states[w].onStack = false
				scc = append(scc, w)
				if w == fi {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, fi := range order {
		if states[fi] == nil {
			strongconnect(fi)
		}
	}
	return out
}
