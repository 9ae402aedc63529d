package lint

import (
	"go/ast"
	"go/token"
)

// GoLeak requires every `go` statement in the concurrent subsystems to
// have a bounded exit, judged transitively through the module
// summaries. A goroutine is bounded when any of the following holds:
//
//   - it calls sync.WaitGroup.Done (possibly deferred, possibly inside
//     a deferred FuncLit releasing a semaphore first), so a spawner's
//     wg.Wait joins it;
//   - it observes cancellation — selects or receives on ctx.Done(), or
//     polls ctx.Err() (the amortized-poll idiom the hot paths use);
//   - it receives from or ranges over a channel some analyzed function
//     close()s (the pull-queue worker shape);
//   - it sends on or closes a channel the spawning function itself
//     receives from (the channel-join shape: `go func() { out <- f() }();
//     <-out`);
//   - it provably terminates: nothing in it or its module callees
//     blocks or loops unconditionally.
//
// Anything else — including goroutines whose body the analysis cannot
// resolve — is a leak candidate: a goroutine with no visible exit path
// outlives its job, holds its captures alive, and (worst) keeps
// touching shared oracle state after the attack run that owned it
// finished, which corrupts the next run's observations silently. See
// docs/LINTING.md.
type GoLeak struct{}

func (GoLeak) Name() string { return "goleak" }

func (GoLeak) Doc() string {
	return "every go statement in the concurrent subsystems must have a bounded exit " +
		"(WaitGroup join, ctx.Done/closed-channel receive, channel join with the " +
		"spawner, or provable termination), transitively through call summaries"
}

func (GoLeak) Applies(pkgPath string) bool {
	return inScope(pkgPath,
		"statsat/internal/server",
		"statsat/internal/exp",
		"statsat/internal/trace",
		"statsat/internal/sat",
		"statsat/internal/engine",
		"statsat/internal/core",
		"statsat/internal/wal")
}

func (c GoLeak) Run(p *Package, m *Module) []Finding {
	var out []Finding
	walkStack(p, func(n ast.Node, stack []ast.Node) {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		if reason := m.goroutineUnbounded(p, g, stack); reason != "" {
			out = append(out, Finding{
				Pos:   p.Fset.Position(g.Pos()),
				Check: c.Name(),
				Message: "goroutine has no bounded exit (" + reason + "); join it with a " +
					"WaitGroup, select on ctx.Done or a closed channel, or hand its " +
					"result to the spawner over a channel",
			})
		}
	})
	return out
}

// goroutineUnbounded returns "" when the spawned goroutine has a
// bounded exit, or a short reason string when it does not.
func (m *Module) goroutineUnbounded(p *Package, g *ast.GoStmt, stack []ast.Node) string {
	var sum *Summary
	lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if isLit {
		sum = m.summarize(p, lit.Body)
	} else if f := funcObj(p.Info, g.Call); f != nil {
		if fi := m.Funcs[f]; fi != nil {
			sum = fi.Sum
		} else {
			return "go " + f.Name() + " calls a function outside the analyzed module, " +
				"so no exit path is visible"
		}
	} else {
		return "dynamic go call; the analysis cannot see the goroutine body"
	}

	switch {
	case sum.WGDone:
		return ""
	case sum.ObservesCancel:
		return ""
	case sum.Terminates():
		return ""
	}
	for ch := range sum.RecvChans {
		if m.ClosedChans[ch] {
			return ""
		}
	}
	// Channel join: the literal sends on (or closes) a channel the
	// spawning function receives from outside the go statement.
	if isLit && m.chanJoined(p, g, lit, stack) {
		return ""
	}
	desc := sum.BlockDesc
	if desc == "" {
		desc = "unconditional loop"
	}
	return "blocks on " + desc + " with no WaitGroup join, cancellation observation, " +
		"closed-channel receive, or spawner channel join"
}

// chanJoined reports the channel-join shape: a channel object the
// goroutine literal sends on or closes is received from (<-ch, range
// ch, or a select case) by the enclosing function outside the go
// statement itself.
func (m *Module) chanJoined(p *Package, g *ast.GoStmt, lit *ast.FuncLit, stack []ast.Node) bool {
	// Channels the goroutine writes.
	written := map[interface{}]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if obj := exprObj(p, x.Chan); obj != nil {
				written[obj] = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if obj := exprObj(p, x.Args[0]); obj != nil {
					written[obj] = true
				}
			}
		}
		return true
	})
	if len(written) == 0 {
		return false
	}
	// Innermost enclosing function body.
	var encl ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			encl = fn.Body
		case *ast.FuncLit:
			encl = fn.Body
		}
		if encl != nil {
			break
		}
	}
	if encl == nil {
		return false
	}
	joined := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if n == g || joined {
			return false
		}
		var ch ast.Expr
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ch = x.X
			}
		case *ast.RangeStmt:
			ch = x.X
		}
		if ch != nil {
			if obj := exprObj(p, ch); obj != nil && written[obj] {
				joined = true
				return false
			}
		}
		return true
	})
	return joined
}
