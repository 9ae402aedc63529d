package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Summary is one function's interprocedural behavior as the checks
// consume it. Every field is monotone (false→true, sets only grow), so
// the fixpoint iteration over an SCC in NewModule converges.
type Summary struct {
	// Blocks reports that the function may block indefinitely: a
	// channel send/receive or select outside a select-with-default, a
	// WaitGroup/Cond Wait, time.Sleep, a Solve* call, or a module
	// callee that blocks. BlockDesc names the first (source-order)
	// piece of evidence. Consumed by lockscope.
	Blocks    bool
	BlockDesc string
	// RetainsParam marks parameter indices the function stores into a
	// struct field, package-level variable, composite literal, or
	// passes to a callee that retains them. Consumed by the escalated
	// bufretain check.
	RetainsParam map[int]bool
	// ReturnsBufAlias reports that the function returns the result of a
	// buffer-aliasing call (SignalProbsInto and friends, or a module
	// callee that itself returns such an alias), making the function a
	// buf-returning wrapper.
	ReturnsBufAlias bool
}

func (s *Summary) equal(o *Summary) bool {
	if o == nil {
		return false
	}
	if s.Blocks != o.Blocks || s.BlockDesc != o.BlockDesc ||
		s.ReturnsBufAlias != o.ReturnsBufAlias || len(s.RetainsParam) != len(o.RetainsParam) {
		return false
	}
	for i := range s.RetainsParam {
		if !o.RetainsParam[i] {
			return false
		}
	}
	return true
}

func (s *Summary) block(desc string) {
	if !s.Blocks {
		s.Blocks = true
		s.BlockDesc = desc
	}
}

// summarize computes the blocking half of a Summary for one function
// body (declared function or method). Nested FuncLits are opaque —
// they run at some other time — except when directly deferred, since a
// deferred literal executes on this function's own exit path (the
// `defer func() { <-sem; wg.Done() }()` idiom). go statements are
// skipped entirely: what a spawned goroutine does is its own business.
func (m *Module) summarize(p *Package, body *ast.BlockStmt) *Summary {
	s := &Summary{}

	// Prepass: which FuncLits run inline (deferred), and which comm
	// operations sit inside a select (the select node itself carries
	// the blocking evidence, once).
	inlineLits := map[*ast.FuncLit]bool{}
	commOp := map[ast.Node]bool{}
	hasDefault := map[*ast.SelectStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				inlineLits[lit] = true
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault[x] = true
					continue
				}
				commOp[cc.Comm] = true
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					commOp[comm] = true
				case *ast.ExprStmt:
					commOp[ast.Unparen(comm.X)] = true
				case *ast.AssignStmt:
					if len(comm.Rhs) == 1 {
						commOp[ast.Unparen(comm.Rhs[0])] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return inlineLits[x]
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !hasDefault[x] {
				s.block("select without default")
			}
		case *ast.SendStmt:
			if !commOp[x] {
				s.block("channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !commOp[x] {
				s.block("channel receive")
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					s.block("range over a channel")
				}
			}
		case *ast.CallExpr:
			if desc, blocks := m.callBlocks(p, x); blocks {
				s.block(desc)
			}
		}
		return true
	})
	return s
}

// callBlocks classifies a call as potentially long-blocking: WaitGroup
// or Cond Wait, time.Sleep, anything named Solve* (solver work —
// interface methods included, which is exactly where SolveCtx hides),
// or a module callee whose summary blocks. Unresolvable calls (dynamic
// func values, conversions) and unknown externals are assumed
// non-blocking; the checks that consume this lean on the repo rule that
// blocking externals do not exist outside the patterns above.
func (m *Module) callBlocks(p *Package, call *ast.CallExpr) (string, bool) {
	f := funcObj(p.Info, call)
	if f == nil {
		return "", false
	}
	if recv := syncRecv(f); recv != "" {
		if f.Name() == "Wait" && (recv == "WaitGroup" || recv == "Cond") {
			return "sync." + recv + ".Wait", true
		}
		return "", false
	}
	if f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Sleep" {
		return "time.Sleep", true
	}
	if osFileRecv(f) && fileBlockingMethods[f.Name()] {
		return "os.File." + f.Name() + " (blocking file I/O)", true
	}
	if strings.HasPrefix(f.Name(), "Solve") {
		return "call to " + f.Name() + " (solver work)", true
	}
	if fi := m.Funcs[f]; fi != nil && fi.Sum != nil && fi.Sum.Blocks {
		return "call to " + f.Name() + ", which may block (" + fi.Sum.BlockDesc + ")", true
	}
	return "", false
}

// fileBlockingMethods are the (*os.File) methods that hit the disk and
// can stall the caller for as long as the filesystem pleases — an
// fsync on a busy device is routinely tens of milliseconds. The WAL's
// single-writer design exists precisely so these never run under a
// mutex; this classification lets lockscope prove it stays that way.
// Close is deliberately absent: it is resource release, not I/O, and
// flagging it would outlaw the universal `defer f.Close()` shape.
var fileBlockingMethods = map[string]bool{
	"Sync":        true,
	"Write":       true,
	"WriteString": true,
	"WriteAt":     true,
	"Read":        true,
	"ReadAt":      true,
	"Truncate":    true,
}

// osFileRecv reports whether f is a method on os.File (pointer or
// value receiver), mirroring syncRecv's package-path matching.
func osFileRecv(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// syncRecv returns the sync.<Type> receiver name ("Mutex", "RWMutex",
// "WaitGroup", "Cond", ...) of a method, or "".
func syncRecv(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	return named.Obj().Name()
}

// retentionPass computes the escape half of the summary: which
// parameters the function retains (stores somewhere that outlives the
// call) and whether it returns a buffer-aliasing result. Single-step
// dataflow on purpose — the transitive part comes from the SCC
// fixpoint, not from chasing local aliases.
func (m *Module) retentionPass(p *Package, decl *ast.FuncDecl, s *Summary) {
	paramIdx := map[types.Object]int{}
	if decl.Type.Params != nil {
		i := 0
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					paramIdx[obj] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}

	inspectStack(decl.Body, func(n ast.Node, stack []ast.Node) {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				call, ok := ast.Unparen(r).(*ast.CallExpr)
				if !ok {
					continue
				}
				if g := funcObj(p.Info, call); g != nil && aliasesBuf(m, g) {
					s.ReturnsBufAlias = true
				}
			}
		case *ast.Ident:
			idx, isParam := paramIdx[p.Info.Uses[x]]
			if !isParam {
				return
			}
			if m.retainedAt(p, x, stack) != "" {
				if s.RetainsParam == nil {
					s.RetainsParam = map[int]bool{}
				}
				s.RetainsParam[idx] = true
			}
		}
	})
}
