// Package hotpathalloc turns the engine's 0-allocs/op benchmark result
// into a compile-time property: a function annotated //prefetch:hotpath
// — and every same-package function it (transitively) calls — must not
// contain allocating constructs:
//
//   - make, new, function literals (closures), go statements
//   - composite literals whose address is taken, and slice/map literals
//   - append into a slice that is neither a caller-supplied buffer nor
//     drawn from a sync.Pool (growth of a fresh slice is a per-call
//     allocation; pooled buffers amortise to zero)
//   - boxing a non-pointer value into an interface (pointers ride in
//     the interface word; values are heap-copied)
//   - fmt.* and errors.New calls (both allocate on every call)
//   - string<->[]byte/[]rune conversions
//
// Buffer provenance is tracked through local dataflow: reslicing,
// field/element selection, range variables, and same-package helpers
// that return pool-derived values (a getBufs-style accessor) all
// inherit the pool/param discipline, so append into such buffers is
// clean.
//
// The analysis is same-package: calls that cross a package boundary are
// the callee's responsibility (annotate the callee in its own package —
// that is why the PredictTopInto implementations carry their own
// annotations), and interface calls dispatch to whatever the caller
// plugged in. Deliberate allocations on an annotated path (a cold error
// branch, model growth, a pool's one-time construction) are waived with
// //lint:allow hotpathalloc <reason>.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// Analyzer is the hotpathalloc check.
var Analyzer = &lint.Analyzer{
	Name: "hotpathalloc",
	Doc:  "//prefetch:hotpath functions (and same-package callees) must not allocate",
	Run:  run,
}

// checker carries the per-package state: the function index, and the
// memoised provenance and returns-pooled analyses.
type checker struct {
	pass       *lint.Pass
	decls      map[types.Object]*ast.FuncDecl
	provs      map[*ast.FuncDecl]map[types.Object]provenance
	retPooled  map[*ast.FuncDecl]bool
	inProgress map[*ast.FuncDecl]bool
}

func run(pass *lint.Pass) error {
	c := &checker{
		pass:       pass,
		decls:      make(map[types.Object]*ast.FuncDecl),
		provs:      make(map[*ast.FuncDecl]map[types.Object]provenance),
		retPooled:  make(map[*ast.FuncDecl]bool),
		inProgress: make(map[*ast.FuncDecl]bool),
	}
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			c.decls[obj] = fd
			if lint.HasDirective(fd.Doc, lint.HotpathDirective) {
				roots = append(roots, fd)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// BFS the same-package static call graph from the annotated roots,
	// remembering which root reached each function for the report.
	type reached struct {
		fd   *ast.FuncDecl
		root string
	}
	visited := make(map[types.Object]bool)
	var queue []reached
	for _, fd := range roots {
		obj := pass.TypesInfo.Defs[fd.Name]
		visited[obj] = true
		queue = append(queue, reached{fd, funcDisplayName(fd)})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		c.checkFunc(cur.fd, cur.root)
		ast.Inspect(cur.fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := c.calleeObj(call)
			fn, ok := callee.(*types.Func)
			if !ok || fn.Pkg() != pass.Pkg {
				return true
			}
			if fd, ok := c.decls[callee]; ok && !visited[callee] {
				visited[callee] = true
				queue = append(queue, reached{fd, cur.root})
			}
			return true
		})
	}
	return nil
}

func (c *checker) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return c.pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// provenance classifies where a slice's backing memory comes from.
type provenance int

const (
	provUnknown provenance = iota
	provParam              // caller-supplied buffer
	provPooled             // drawn from a sync.Pool
	provFresh              // locally allocated (already flagged at its make)
)

// checkFunc flags allocating constructs in one reached function.
func (c *checker) checkFunc(fd *ast.FuncDecl, root string) {
	pass := c.pass
	where := funcDisplayName(fd)
	via := ""
	if where != root {
		via = " (reachable from //prefetch:hotpath " + root + ")"
	}
	prov := c.provenanceOf(fd)
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in hot path %s%s", what, where, via)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "goroutine launch")
			return true
		case *ast.FuncLit:
			report(n.Pos(), "function literal (closure allocation)")
			return false // its body is the closure's problem
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "heap-escaping composite literal (&T{...})")
				}
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.Types[n].Type
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n.Pos(), "slice/map literal")
				}
			}
		case *ast.CallExpr:
			c.checkCall(n, prov, report)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, prov map[types.Object]provenance, report func(token.Pos, string)) {
	pass := c.pass
	// Builtins and conversions first.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch pass.TypesInfo.Uses[id] {
		case types.Universe.Lookup("make"):
			report(call.Pos(), "make")
			return
		case types.Universe.Lookup("new"):
			report(call.Pos(), "new")
			return
		case types.Universe.Lookup("append"):
			if len(call.Args) > 0 {
				switch c.exprProv(prov, call.Args[0]) {
				case provParam, provPooled:
				default:
					report(call.Pos(), "append into a non-pooled slice")
				}
			}
			return
		}
	}
	// String conversions.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type.Underlying(), pass.TypesInfo.Types[call.Args[0]].Type
		if from != nil && stringBytesConversion(to, from.Underlying()) {
			report(call.Pos(), "string<->[]byte conversion")
			return
		}
	}
	// fmt / errors.New.
	if fn, ok := c.calleeObj(call).(*types.Func); ok && fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "fmt":
			report(call.Pos(), "fmt."+fn.Name()+" call")
			return
		case fn.Pkg().Path() == "errors" && fn.Name() == "New":
			report(call.Pos(), "errors.New call")
			return
		}
	}
	// Interface boxing of non-pointer arguments.
	c.checkBoxing(call, report)
}

// checkBoxing flags arguments whose static type is a concrete
// non-pointer value passed into an interface parameter.
func (c *checker) checkBoxing(call *ast.CallExpr, report func(token.Pos, string)) {
	pass := c.pass
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch u := at.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // pointer-shaped: rides in the interface word
		case *types.Basic:
			if u.Kind() == types.UntypedNil {
				continue
			}
		}
		report(arg.Pos(), "interface boxing of non-pointer value")
	}
}

func stringBytesConversion(to, from types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		sl, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(to) && isByteish(from)) || (isByteish(to) && isString(from))
}

// provenanceOf runs (and memoises) one forward pass over the function
// assigning each local object a buffer provenance. Parameters
// (including the receiver) are provParam; pool.Get results — direct or
// through a same-package accessor — are provPooled; make and literals
// are provFresh; provenance flows through =, :=, range variables,
// reslicing, and field/element selection of a tracked base.
func (c *checker) provenanceOf(fd *ast.FuncDecl) map[types.Object]provenance {
	if p, ok := c.provs[fd]; ok {
		return p
	}
	pass := c.pass
	prov := make(map[types.Object]provenance)
	c.provs[fd] = prov
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					prov[obj] = provParam
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)

	record := func(id *ast.Ident, p provenance) {
		if p == provUnknown || id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj != nil && prov[obj] == provUnknown {
			prov[obj] = p
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					record(id, c.exprProv(prov, n.Rhs[i]))
				}
			}
		case *ast.RangeStmt:
			// A range value aliases an element of the ranged
			// container, so it shares the container's discipline.
			if id, ok := n.Value.(*ast.Ident); ok {
				record(id, c.exprProv(prov, n.X))
			}
		}
		return true
	})
	return prov
}

func (c *checker) exprProv(prov map[types.Object]provenance, e ast.Expr) provenance {
	pass := c.pass
	switch e := e.(type) {
	case *ast.Ident:
		return prov[pass.TypesInfo.Uses[e]]
	case *ast.SliceExpr:
		return c.exprProv(prov, e.X)
	case *ast.SelectorExpr:
		// A field of a pooled or caller-supplied struct shares its
		// owner's backing discipline (bufs.cands on a pooled bufs).
		return c.exprProv(prov, e.X)
	case *ast.IndexExpr:
		// An element of a pooled or caller-supplied table likewise
		// (groups[b] on a pooled scratch's group table).
		return c.exprProv(prov, e.X)
	case *ast.TypeAssertExpr:
		return c.exprProv(prov, e.X)
	case *ast.CallExpr:
		if m, ok := c.poolMethodName(e); ok && m == "Get" {
			return provPooled
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			u := pass.TypesInfo.Uses[id]
			if u == types.Universe.Lookup("make") || u == types.Universe.Lookup("new") {
				return provFresh
			}
		}
		// A same-package accessor that returns pool-derived values
		// (getMulti, getJob) propagates the pool discipline.
		if fn, ok := c.calleeObj(e).(*types.Func); ok && fn.Pkg() == pass.Pkg {
			if fd, ok := c.decls[types.Object(fn)]; ok && c.returnsPooled(fd) {
				return provPooled
			}
		}
		return provUnknown
	case *ast.CompositeLit:
		return provFresh
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.exprProv(prov, e.X)
		}
	case *ast.StarExpr:
		return c.exprProv(prov, e.X)
	case *ast.ParenExpr:
		return c.exprProv(prov, e.X)
	}
	return provUnknown
}

// returnsPooled reports whether every return path of fd yields
// pool-derived values — the getMulti/getJob accessor shape. Memoised;
// recursion through mutually-calling accessors resolves conservatively
// to false.
func (c *checker) returnsPooled(fd *ast.FuncDecl) bool {
	if v, ok := c.retPooled[fd]; ok {
		return v
	}
	if c.inProgress[fd] {
		return false
	}
	c.inProgress[fd] = true
	defer delete(c.inProgress, fd)
	prov := c.provenanceOf(fd)
	pooled := false
	all := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if c.exprProv(prov, r) == provPooled {
					pooled = true
				} else {
					all = false
				}
			}
		}
		return true
	})
	v := pooled && all
	c.retPooled[fd] = v
	return v
}

func (c *checker) poolMethodName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "Pool" {
		return "", false
	}
	return fn.Name(), true
}
