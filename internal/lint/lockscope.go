package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockScope enforces mutex discipline across internal/: while a
// sync.Mutex or sync.RWMutex is held, nothing may block — no channel
// sends or receives, no select without default, no WaitGroup/Cond
// Wait, no Solve* calls, no module callee whose summary blocks, and no
// Emit with an allocating payload (trace fan-out can stall on slow
// subscribers; cheap envelopes are fine) — and every path out of the
// function must release what it acquired (deferred Unlock, including
// inside a deferred FuncLit, satisfies all paths at once). The
// analysis is a branch-sensitive walk over each function body tracking
// the held/deferred state per mutex expression; TryLock in an if
// condition is understood in both polarities. Blocking under a lock
// convoys everything that waits for it: were statsatd's submission
// handler to hold Server.mu across its three waits on the WAL writer
// goroutine (registering, queueing and rolling back a job), one slow
// disk write would stall every other submission and Shutdown behind it.
type LockScope struct{}

func (LockScope) Name() string { return "lockscope" }

func (LockScope) Doc() string {
	return "no blocking operations (channel ops, Wait, Solve*, Emit with an allocating " +
		"payload, blocking module callees) while a sync.Mutex/RWMutex is held, and " +
		"unlock-on-all-paths discipline including defer"
}

func (LockScope) Applies(pkgPath string) bool {
	return inScope(pkgPath, "statsat/internal")
}

func (c LockScope) Run(p *Package, m *Module) []Finding {
	w := &lockWalker{p: p, m: m, check: c.Name()}
	// Analyze every function body — declarations and literals alike —
	// each with an empty entry state. Literals are collected first so
	// the statement walk can treat them as opaque.
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.analyzeBody(fd.Body)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.analyzeBody(lit.Body)
			}
			return true
		})
	}
	sort.Slice(w.out, func(i, j int) bool { return w.out[i].Pos.Offset < w.out[j].Pos.Offset })
	return w.out
}

// lockVal is the tracked state of one mutex within one function.
type lockVal struct {
	held     bool
	deferred bool      // an Unlock for it is deferred
	lockPos  token.Pos // where it was last acquired
}

// lockEnv maps a rendered mutex expression ("c.mu", "s.pool.mu") to
// its state. Keys are syntactic: two expressions spelling the same
// path are the same mutex, aliases are (deliberately) not chased.
type lockEnv map[string]*lockVal

func (e lockEnv) clone() lockEnv {
	c := make(lockEnv, len(e))
	for k, v := range e {
		cp := *v
		c[k] = &cp
	}
	return c
}

func (e lockEnv) get(key string) *lockVal {
	if v, ok := e[key]; ok {
		return v
	}
	v := &lockVal{}
	e[key] = v
	return v
}

// anyHeld returns the (alphabetically first, for determinism) held
// mutex key, or "".
func (e lockEnv) anyHeld() string {
	var keys []string
	for k, v := range e {
		if v.held {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	return keys[0]
}

// heldEqual reports whether two environments agree on which mutexes
// are held, returning the first key they disagree on.
func heldEqual(a, b lockEnv) (string, bool) {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		ah := a[k] != nil && a[k].held
		bh := b[k] != nil && b[k].held
		if ah != bh {
			return k, false
		}
	}
	return "", true
}

type lockWalker struct {
	p     *Package
	m     *Module
	check string
	out   []Finding
}

func (w *lockWalker) finding(pos token.Pos, msg string) {
	w.out = append(w.out, Finding{Pos: w.p.Fset.Position(pos), Check: w.check, Message: msg})
}

func (w *lockWalker) analyzeBody(body *ast.BlockStmt) {
	env := lockEnv{}
	terminal := w.stmts(body.List, env)
	if terminal {
		return
	}
	for _, key := range sortedKeys(env) {
		v := env[key]
		if v.held && !v.deferred {
			w.finding(v.lockPos, "function ends holding "+key+
				"; release on all paths or defer the Unlock")
		}
	}
}

func sortedKeys(env lockEnv) []string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// stmts walks a statement list, returning true when the list ends the
// control-flow path (return/branch on every continuation).
func (w *lockWalker) stmts(list []ast.Stmt, env lockEnv) bool {
	for _, s := range list {
		if w.stmt(s, env) {
			return true
		}
	}
	return false
}

func (w *lockWalker) stmt(s ast.Stmt, env lockEnv) bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.scan(x.X, env)
	case *ast.SendStmt:
		if h := env.anyHeld(); h != "" {
			w.finding(x.Pos(), "channel send while holding "+h+
				"; release the lock before blocking channel operations")
		}
		w.scan(x.Chan, env)
		w.scan(x.Value, env)
	case *ast.IncDecStmt:
		w.scan(x.X, env)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			w.scan(e, env)
		}
		for _, e := range x.Lhs {
			w.scan(e, env)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scan(v, env)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.deferStmt(x, env)
	case *ast.GoStmt:
		for _, a := range x.Call.Args {
			w.scan(a, env)
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.scan(r, env)
		}
		for _, key := range sortedKeys(env) {
			v := env[key]
			if v.held && !v.deferred {
				w.finding(x.Pos(), "return while holding "+key+
					" with no deferred Unlock on this path")
			}
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the current construct; treating
		// them as terminal keeps the merge logic simple and errs
		// toward silence.
		return true
	case *ast.BlockStmt:
		return w.stmts(x.List, env)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, env)
	case *ast.IfStmt:
		return w.ifStmt(x, env)
	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init, env)
		}
		if x.Cond != nil {
			w.scan(x.Cond, env)
		}
		w.loopBody(x.Pos(), x.Body, env, func(e lockEnv) bool {
			t := w.stmts(x.Body.List, e)
			if !t && x.Post != nil {
				w.stmt(x.Post, e)
			}
			return t
		})
	case *ast.RangeStmt:
		if tv, ok := w.p.Info.Types[x.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				if h := env.anyHeld(); h != "" {
					w.finding(x.Pos(), "range over a channel while holding "+h+
						"; the receive blocks until the sender runs")
				}
			}
		}
		w.scan(x.X, env)
		w.loopBody(x.Pos(), x.Body, env, func(e lockEnv) bool {
			return w.stmts(x.Body.List, e)
		})
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, env)
		}
		if x.Tag != nil {
			w.scan(x.Tag, env)
		}
		w.caseClauses(x.Pos(), x.Body.List, env, hasDefaultCase(x.Body.List))
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, env)
		}
		w.caseClauses(x.Pos(), x.Body.List, env, hasDefaultCase(x.Body.List))
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			if h := env.anyHeld(); h != "" {
				w.finding(x.Pos(), "select without default while holding "+h+
					"; the wait can stall every other holder of the lock")
			}
		}
		w.caseClauses(x.Pos(), x.Body.List, env, true)
	}
	return false
}

// ifStmt handles branch merge and the TryLock-in-condition idiom.
func (w *lockWalker) ifStmt(x *ast.IfStmt, env lockEnv) bool {
	if x.Init != nil {
		w.stmt(x.Init, env)
	}
	tryKey, negated, isTry := w.tryLockCond(x.Cond)
	if !isTry {
		w.scan(x.Cond, env)
	}
	thenEnv := env.clone()
	elseEnv := env.clone()
	if isTry {
		// `if mu.TryLock()` holds in the then-branch; `if !mu.TryLock()`
		// holds in the else/fallthrough.
		acquired := thenEnv
		if negated {
			acquired = elseEnv
		}
		v := acquired.get(tryKey)
		v.held = true
		v.lockPos = x.Cond.Pos()
	}
	tThen := w.stmts(x.Body.List, thenEnv)
	tElse := false
	if x.Else != nil {
		tElse = w.stmt(x.Else, elseEnv)
	}
	switch {
	case tThen && tElse:
		return true
	case tThen:
		replace(env, elseEnv)
	case tElse:
		replace(env, thenEnv)
	default:
		if key, ok := heldEqual(thenEnv, elseEnv); !ok {
			w.finding(x.Pos(), key+" is conditionally held after this if; "+
				"acquire and release symmetrically on both branches")
			// Continue un-held so the one real defect does not cascade.
			thenEnv.get(key).held = false
			elseEnv.get(key).held = false
		}
		replace(env, thenEnv)
	}
	return false
}

// loopBody analyzes a loop body on a cloned environment and reports
// when an iteration would exit with a different set of held locks than
// it entered with — the asymmetry that deadlocks on iteration two.
func (w *lockWalker) loopBody(pos token.Pos, body *ast.BlockStmt, env lockEnv, run func(lockEnv) bool) {
	bodyEnv := env.clone()
	terminal := run(bodyEnv)
	if !terminal {
		if key, ok := heldEqual(env, bodyEnv); !ok {
			w.finding(pos, "lock state of "+key+" changes across a loop iteration; "+
				"each iteration must release what it acquires")
		}
	}
	// The loop may run zero times; continue with the entry state.
}

// caseClauses walks each case/comm clause on a cloned environment and
// merges. covered=false adds the entry environment as an implicit
// fall-through path (a switch with no default).
func (w *lockWalker) caseClauses(pos token.Pos, clauses []ast.Stmt, env lockEnv, covered bool) {
	type branch struct {
		env      lockEnv
		terminal bool
	}
	var branches []branch
	for _, cl := range clauses {
		be := env.clone()
		var body []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scan(e, be)
			}
			body = c.Body
		case *ast.CommClause:
			// The comm op's blocking nature is judged at the select
			// level; locals bound here cannot touch mutex state.
			body = c.Body
		}
		branches = append(branches, branch{be, w.stmts(body, be)})
	}
	if !covered {
		branches = append(branches, branch{env.clone(), false})
	}
	var live []lockEnv
	for _, b := range branches {
		if !b.terminal {
			live = append(live, b.env)
		}
	}
	if len(live) == 0 {
		return
	}
	for _, other := range live[1:] {
		if key, ok := heldEqual(live[0], other); !ok {
			w.finding(pos, key+" is conditionally held after this switch/select; "+
				"acquire and release symmetrically in every case")
			live[0].get(key).held = false
			other.get(key).held = false
		}
	}
	replace(env, live[0])
}

func replace(dst, src lockEnv) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// deferStmt registers deferred Unlocks — direct (`defer mu.Unlock()`)
// or inside a deferred FuncLit — and scans argument expressions, which
// evaluate immediately.
func (w *lockWalker) deferStmt(d *ast.DeferStmt, env lockEnv) {
	if key, method, ok := w.mutexMethod(d.Call); ok {
		if method == "Unlock" || method == "RUnlock" {
			env.get(key).deferred = true
		}
		return
	}
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if key, method, ok := w.mutexMethod(call); ok &&
					(method == "Unlock" || method == "RUnlock") {
					env.get(key).deferred = true
				}
			}
			return true
		})
		return
	}
	for _, a := range d.Call.Args {
		w.scan(a, env)
	}
}

// scan inspects an expression for mutex transitions and blocking
// operations under a held lock. FuncLits are opaque (analyzed
// separately with their own empty state).
func (w *lockWalker) scan(e ast.Expr, env lockEnv) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if h := env.anyHeld(); h != "" {
					w.finding(x.Pos(), "channel receive while holding "+h+
						"; release the lock before blocking channel operations")
				}
			}
		case *ast.CallExpr:
			if key, method, ok := w.mutexMethod(x); ok {
				v := env.get(key)
				switch method {
				case "Lock", "RLock":
					v.held = true
					v.lockPos = x.Pos()
				case "Unlock", "RUnlock":
					v.held = false
				}
				// TryLock outside an if condition: acquisition is
				// conditional, so no state transition is recorded.
				return false
			}
			if h := env.anyHeld(); h != "" {
				if desc, blocks := w.blockingCall(x); blocks {
					w.finding(x.Pos(), desc+" while holding "+h+
						"; release the lock around blocking work")
				}
			}
		}
		return true
	})
}

// blockingCall extends the shared summary classifier with the
// Emit-with-allocating-payload rule: trace fan-out of a payload that
// had to be built is presumed slow enough to matter under a lock,
// while cheap by-value envelopes pass.
func (w *lockWalker) blockingCall(call *ast.CallExpr) (string, bool) {
	if desc, blocks := w.m.callBlocks(w.p, call); blocks {
		return desc, true
	}
	if f := funcObj(w.p.Info, call); f != nil && f.Name() == "Emit" {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			if alloc := allocatingArg(w.p, call); alloc != "" {
				return "Emit with an allocating payload (" + alloc + ")", true
			}
		}
	}
	return "", false
}

// mutexMethod matches a call to (*sync.Mutex)/(*sync.RWMutex)
// Lock/Unlock/RLock/RUnlock/TryLock/TryRLock and returns the rendered
// receiver expression as the tracking key.
func (w *lockWalker) mutexMethod(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	f, isFunc := w.p.Info.Uses[sel.Sel].(*types.Func)
	if !isFunc {
		return "", "", false
	}
	recv := syncRecv(f)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", "", false
	}
	switch f.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return types.ExprString(sel.X), f.Name(), true
	}
	return "", "", false
}

// tryLockCond recognizes `mu.TryLock()` and `!mu.TryLock()` as an if
// condition (optionally parenthesized).
func (w *lockWalker) tryLockCond(cond ast.Expr) (key string, negated bool, ok bool) {
	e := ast.Unparen(cond)
	if u, isNot := e.(*ast.UnaryExpr); isNot && u.Op == token.NOT {
		negated = true
		e = ast.Unparen(u.X)
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	k, method, isMutex := w.mutexMethod(call)
	if !isMutex || (method != "TryLock" && method != "TryRLock") {
		return "", false, false
	}
	return k, negated, true
}

func hasDefaultCase(clauses []ast.Stmt) bool {
	for _, cl := range clauses {
		if c, ok := cl.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if c, ok := cl.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}
