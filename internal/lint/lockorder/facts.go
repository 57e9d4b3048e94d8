package lockorder

// This file extracts the facts the lock-order graph is built from: for
// every function (and function literal) in a package, which lock
// classes it acquires and releases and which functions it calls, in
// source order. A go statement's call runs on another goroutine, so it
// is no call edge — the goroutine inherits no locks and its body is
// walked as a root of its own. A deferred Unlock keeps its lock held to
// the end of the body, and a deferred call runs at return, so neither
// is an event where it is written.
//
// The extraction is a source-order walk, not a CFG: events appear in
// the order they appear in the text, which over-approximates some
// paths (an early-return arm's Unlock is seen by the code after the
// branch) and under-approximates others. That trade is deliberate —
// the kit favours few, high-confidence findings over exhaustive ones,
// and the engine's lock discipline is straight-line enough that source
// order tracks control flow closely.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// A lockClass identifies one lock *class*: every instance of a given
// mutex field (all 64 shard.mu's, all 16 markovStripe.mu's) shares one
// class, which is the granularity lock-order checking needs — an order
// inversion between two instances of different classes is a deadlock
// regardless of which instances are involved. Fields are keyed
// "pkgpath.Type.field", package-level vars "pkgpath.var", and
// function-local mutexes by declaration site.
type lockClass string

// short returns the class with the package path prefix stripped when
// it names pkgPath — the form diagnostics print.
func (c lockClass) short(pkgPath string) string {
	return strings.TrimPrefix(string(c), pkgPath+".")
}

type eventKind uint8

const (
	evAcquire eventKind = iota // a Lock/RLock call on a sync mutex
	evRelease                  // an Unlock/RUnlock call, not deferred
	evCall                     // a statically-resolved call, not spawned or deferred
)

// An event is one lock-relevant action in source order.
type event struct {
	kind   eventKind
	lock   lockClass   // evAcquire / evRelease
	callee *types.Func // evCall: the resolved callee (any package)
	pos    token.Pos
}

// funcFacts is one function's (or function literal's) events, in
// source order, excluding everything inside nested function literals
// (each literal has its own funcFacts).
type funcFacts struct {
	// display names the function for diagnostics: "(*Engine).Get",
	// "New", or "func literal in (*Fabric).Fetch".
	display  string
	events   []event
	testFile bool // every walk skips test files: the invariants guard production code
}

// facts is one package's extracted functions.
type facts struct {
	// funcs lists every function and function literal, declaration
	// order, test files included (marked).
	funcs []*funcFacts
	// byObj resolves a statically-called *types.Func to its facts, for
	// call-edge propagation within the package.
	byObj map[*types.Func]*funcFacts
}

// packageFacts extracts the facts of the pass's package.
func packageFacts(pass *lint.Pass) *facts {
	c := &collector{
		fset:  pass.Fset,
		info:  pass.TypesInfo,
		facts: &facts{byObj: make(map[*types.Func]*funcFacts)},
	}
	for _, file := range pass.Files {
		isTest := pass.InTestFile(file.Pos())
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ff := &funcFacts{display: funcDisplay(fd), testFile: isTest}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.facts.byObj[obj] = ff
			}
			c.facts.funcs = append(c.facts.funcs, ff)
			c.collect(ff, fd.Body)
		}
	}
	return c.facts
}

func funcDisplay(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	b.WriteByte('(')
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		b.WriteByte('*')
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver
		if id, ok := t.X.(*ast.Ident); ok {
			b.WriteString(id.Name)
		}
	default:
		b.WriteString("?")
	}
	fmt.Fprintf(&b, ").%s", fd.Name.Name)
	return b.String()
}

type collector struct {
	fset  *token.FileSet
	info  *types.Info
	facts *facts
}

// collect walks one function body in source order, appending events to
// ff and creating separate funcFacts for nested function literals.
func (c *collector) collect(ff *funcFacts, body *ast.BlockStmt) {
	// Calls that are the operand of a go or defer statement are marked
	// as they are met: the Inspect walk reaches a statement before its
	// call.
	spawned := map[*ast.CallExpr]bool{}
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := &funcFacts{display: "func literal in " + ff.display, testFile: ff.testFile}
			c.facts.funcs = append(c.facts.funcs, lit)
			c.collect(lit, n.Body)
			return false
		case *ast.GoStmt:
			spawned[n.Call] = true
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			c.call(ff, n, spawned[n], deferred[n])
		}
		return true
	})
}

// call classifies one call expression into an event, if any.
func (c *collector) call(ff *funcFacts, call *ast.CallExpr, spawned, deferred bool) {
	if spawned {
		return
	}
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = c.info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = c.info.Uses[fun.Sel].(*types.Func)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && recvIsMutex(fn) {
			if class, ok := c.lockClass(fun.X); ok {
				switch fn.Name() {
				case "Lock", "RLock":
					ff.events = append(ff.events, event{kind: evAcquire, lock: class, pos: call.Pos()})
					return
				case "Unlock", "RUnlock":
					if !deferred {
						ff.events = append(ff.events, event{kind: evRelease, lock: class, pos: call.Pos()})
					}
					return
				}
			}
		}
	}
	if fn != nil && !deferred {
		ff.events = append(ff.events, event{kind: evCall, callee: fn, pos: call.Pos()})
	}
}

// recvIsMutex reports whether fn's receiver is one of sync's lock
// types.
func recvIsMutex(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex", "Locker":
		return true
	}
	return false
}

// lockClass keys the mutex behind expr (the receiver of a Lock/Unlock
// call): struct fields by owner type, package vars by name, locals by
// declaration site.
func (c *collector) lockClass(expr ast.Expr) (lockClass, bool) {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if s, ok := c.info.Selections[e]; ok && s.Kind() == types.FieldVal {
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return lockClass(fmt.Sprintf("%s.%s.%s",
					named.Obj().Pkg().Path(), named.Obj().Name(), e.Sel.Name)), true
			}
		}
		// Qualified package-level var (pkg.Mu).
		if v, ok := c.info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && !v.IsField() {
			return lockClass(v.Pkg().Path() + "." + v.Name()), true
		}
	case *ast.Ident:
		obj := c.info.Uses[e]
		if obj == nil {
			obj = c.info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			if !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return lockClass(v.Pkg().Path() + "." + v.Name()), true
			}
			// A function-local mutex, or an unqualified field in a method
			// with an embedded mutex: keyed by declaration position, so two
			// locals of the same name in different functions stay distinct.
			return lockClass(fmt.Sprintf("%s@%s", v.Name(), c.fset.Position(v.Pos()))), true
		}
	case *ast.IndexExpr:
		// A mutex in a slice/array element: stripes[i].mu resolves via the
		// selector case above; a bare muArr[i] keys by the array.
		return c.lockClass(e.X)
	case *ast.ParenExpr:
		return c.lockClass(e.X)
	case *ast.StarExpr:
		return c.lockClass(e.X)
	}
	return "", false
}
