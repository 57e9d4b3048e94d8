// Package lockscope enforces the engine's critical-section discipline:
//
//   - no blocking operation while a mutex is held: channel send or
//     receive, select without a default, time.Sleep,
//     sync.WaitGroup.Wait / sync.Cond.Wait, and dynamic Fetch /
//     FetchBatch interface calls (a backend's fetch is arbitrary user
//     I/O). A select with a default clause is
//     non-blocking by construction — the engine's shed-on-full queue
//     push — and is allowed.
//   - every Lock/RLock is paired with an Unlock/RUnlock (or a deferred
//     one) on every exit path of the function that took it.
//
// The analysis is lexical and per-function, tracking held locks by the
// printed receiver expression ("sh.mu", "e.qmu") through branches; a
// branch that returns or breaks stops propagating its state, and
// branch joins take the union of held sets (conservative: a lock
// released on only one arm stays suspect). Functions that unlock a
// mutex they never locked — the *Locked helper convention, where the
// caller holds the lock — are not flagged. Deliberate lock handoffs
// (returning a helper's result while it releases the lock) are waived
// with //lint:allow lockscope <reason>.
package lockscope

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// Analyzer is the lockscope check.
var Analyzer = &lint.Analyzer{
	Name: "lockscope",
	Doc:  "no blocking operations under a mutex; every Lock has an Unlock on all exit paths",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		// Top-level functions and every function literal are analyzed
		// independently: a goroutine body does not inherit its
		// creator's locks, and a closure's locks are its own.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
				return true
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
				return true
			}
			return true
		})
	}
	return nil
}

// lockKey identifies one lock guard: the printed receiver expression
// plus the read/write mode.
type lockKey string

type state struct {
	held map[lockKey]token.Pos // lock site
	// deferred marks locks with a registered deferred unlock: held for
	// blocking-op purposes, satisfied for exit-path purposes.
	deferred map[lockKey]bool
}

func newState() *state {
	return &state{held: map[lockKey]token.Pos{}, deferred: map[lockKey]bool{}}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// union folds o's state into s (conservative join).
func (s *state) union(o *state) {
	for k, v := range o.held {
		if _, ok := s.held[k]; !ok {
			s.held[k] = v
		}
	}
	for k := range o.deferred {
		s.deferred[k] = true
	}
}

// anyBare reports a held lock with no deferred unlock, if any.
func (s *state) anyBare() (lockKey, token.Pos, bool) {
	for k, pos := range s.held {
		if !s.deferred[k] {
			return k, pos, true
		}
	}
	return "", token.NoPos, false
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}

// lockOp classifies a call as a mutex operation: returns the guard key
// and whether it is an acquire.
func lockOp(pass *lint.Pass, call *ast.CallExpr) (lockKey, bool, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	name := fn.Name()
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false, false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		switch named.Obj().Name() {
		case "Mutex", "RWMutex", "Locker":
		default:
			return "", false, false
		}
	}
	key := exprString(pass.Fset, sel.X)
	if name == "RLock" || name == "RUnlock" {
		key += "#r"
	}
	return lockKey(key), name == "Lock" || name == "RLock", true
}

// blockingCall describes why a call expression blocks, or "".
func blockingCall(pass *lint.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		return "time.Sleep"
	}
	if fn.Pkg().Path() == "sync" && fn.Name() == "Wait" && sig.Recv() != nil {
		return "sync." + recvTypeName(sig) + ".Wait"
	}
	// Dynamic fetch-shaped calls: an interface Fetch/FetchBatch
	// dispatches to arbitrary backend I/O.
	switch fn.Name() {
	case "Fetch", "FetchBatch":
		if selection, ok := pass.TypesInfo.Selections[sel]; ok && types.IsInterface(selection.Recv()) {
			return "interface " + fn.Name() + " call"
		}
	}
	return ""
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func checkFunc(pass *lint.Pass, body *ast.BlockStmt) {
	st := newState()
	terminated := checkStmts(pass, body.List, st)
	if !terminated {
		if k, pos, ok := st.anyBare(); ok {
			pass.Reportf(pos, "%s is locked here but not unlocked on the fall-through return path", k)
		}
	}
}

// checkStmts walks one statement list, updating st. It returns true
// when control cannot fall out of the list (return/branch/panic).
func checkStmts(pass *lint.Pass, stmts []ast.Stmt, st *state) bool {
	for _, stmt := range stmts {
		if checkStmt(pass, stmt, st) {
			return true
		}
	}
	return false
}

func checkStmt(pass *lint.Pass, stmt ast.Stmt, st *state) (terminated bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, acquire, ok := lockOp(pass, call); ok {
				if acquire {
					st.held[key] = call.Pos()
				} else {
					delete(st.held, key)
					delete(st.deferred, key)
				}
				return false
			}
		}
		checkExpr(pass, s.X, st)
	case *ast.DeferStmt:
		if key, acquire, ok := lockOp(pass, s.Call); ok && !acquire {
			if _, heldNow := st.held[key]; heldNow {
				st.deferred[key] = true
			}
			return false
		}
		checkExpr(pass, s.Call, st)
	case *ast.SendStmt:
		reportBlocked(pass, s.Pos(), "channel send", st)
		checkExpr(pass, s.Value, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			checkExpr(pass, r, st)
		}
		for _, l := range s.Lhs {
			checkExpr(pass, l, st)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkExpr(pass, r, st)
		}
		if k, _, ok := st.anyBare(); ok {
			pass.Reportf(s.Pos(), "return while %s is still locked: unlock on every exit path (or defer the unlock)", k)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto: stop propagating this arm's state. The
		// loop-level conservatism (body analyzed with a clone) covers
		// the rejoin.
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init, st)
		}
		checkExpr(pass, s.Cond, st)
		bodySt := st.clone()
		bodyTerm := checkStmts(pass, s.Body.List, bodySt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = checkStmt(pass, s.Else, elseSt)
		}
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			*st = *elseSt
		case elseTerm:
			*st = *bodySt
		default:
			*st = *bodySt
			st.union(elseSt)
		}
	case *ast.BlockStmt:
		return checkStmts(pass, s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init, st)
		}
		if s.Cond != nil {
			checkExpr(pass, s.Cond, st)
		}
		bodySt := st.clone()
		checkStmts(pass, s.Body.List, bodySt)
		// A lock balance achieved only inside the body does not change
		// the state after the loop (it may run zero times); a lock
		// TAKEN in the body and leaked would be caught by the body's
		// own iteration-boundary conservatism only if the body also
		// exits — union keeps it visible after the loop.
		st.union(bodySt)
	case *ast.RangeStmt:
		checkExpr(pass, s.X, st)
		bodySt := st.clone()
		checkStmts(pass, s.Body.List, bodySt)
		st.union(bodySt)
	case *ast.SwitchStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init, st)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag, st)
		}
		mergeClauses(pass, s.Body.List, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init, st)
		}
		mergeClauses(pass, s.Body.List, st)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			reportBlocked(pass, s.Pos(), "select without default", st)
		}
		mergeClauses(pass, s.Body.List, st)
	case *ast.GoStmt:
		// The goroutine runs concurrently: its body holds none of our
		// locks (it is analyzed separately), and launching it does not
		// block. Arguments are evaluated here, though.
		for _, a := range s.Call.Args {
			checkExpr(pass, a, st)
		}
	case *ast.LabeledStmt:
		return checkStmt(pass, s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						checkExpr(pass, v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		checkExpr(pass, s.X, st)
	}
	return false
}

// mergeClauses analyzes each case/comm clause with a cloned state and
// joins the arms that fall through.
func mergeClauses(pass *lint.Pass, clauses []ast.Stmt, st *state) {
	merged := st.clone()
	first := true
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				checkExpr(pass, e, st)
			}
			body = cc.Body
		case *ast.CommClause:
			// The comm op itself is the select's blocking point,
			// already handled at the select level.
			body = cc.Body
		}
		armSt := st.clone()
		if !checkStmts(pass, body, armSt) {
			if first {
				*merged = *armSt
				first = false
			} else {
				merged.union(armSt)
			}
		}
	}
	if !first {
		*st = *merged
	}
}

// checkExpr flags blocking operations appearing in expression position
// while locks are held, and nested lock calls used as expressions.
func checkExpr(pass *lint.Pass, e ast.Expr, st *state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed separately with an empty state
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportBlocked(pass, n.Pos(), "channel receive", st)
			}
		case *ast.CallExpr:
			if why := blockingCall(pass, n); why != "" {
				reportBlocked(pass, n.Pos(), why, st)
			}
		}
		return true
	})
}

func reportBlocked(pass *lint.Pass, pos token.Pos, what string, st *state) {
	for k := range st.held {
		pass.Reportf(pos, "%s while %s is held: blocking under a mutex stalls every request hashed to it", what, k)
		return // one lock named per site is enough
	}
}
