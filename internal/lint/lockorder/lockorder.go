// Package lockorder builds the package's cross-function lock-acquisition
// graph and reports any cycle as a potential deadlock. A node is a lock
// class (every instance of shard.mu is one node; so is every estimator
// stripe mutex and every fabric queue lock); an edge A → B means some
// call path acquires B while holding A. Two goroutines taking the same
// pair of classes in opposite orders can deadlock even though each
// function looks locally correct — exactly the hazard the per-function
// lockscope analyzer cannot see.
//
// The graph is built by propagating held-lock sets across the
// same-package call graph from every function as a root: each Lock
// records an edge from every class currently held, calls descend into
// the callee's facts with the held set (so a lock taken three frames
// above still orders against one taken below), Unlock releases the most
// recent acquisition of its class — including one inherited from the
// caller, which models the engine's lock-handoff helpers — and go
// statements inherit nothing. Each cycle is reported once, with the
// witnessing call path for every edge on it; a same-class nested
// acquisition (A while A is held) is reported as a self-deadlock, since
// sync.Mutex is not reentrant.
//
// A deliberate ordering exception is waived on the acquiring line with
// //lint:allow lockorder <reason>; the reason must name why the cycle
// cannot close at runtime (e.g. the two orders are serialised by a
// state machine or a dedicated outer lock).
package lockorder

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the lockorder check.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc:  "report cycles in the cross-function lock-acquisition graph (potential deadlocks) with witnessing call paths",
	Run:  run,
}

// edge is one ordered pair: to was acquired while from was held.
type edge struct {
	from, to lockClass
}

// witness records how an edge was first observed: the call path from
// the root function to the acquiring function, and the acquisition
// site. The first observation stands for all later ones.
type witness struct {
	path []string  // function displays, root first
	pos  token.Pos // the Lock call that closed the edge
}

type graph struct {
	pass  *lint.Pass
	facts *facts
	edges map[edge]*witness
	// visited memoizes (function, held-class-set) pairs so recursive
	// and converging call paths terminate.
	visited map[*funcFacts]map[string]bool
}

func run(pass *lint.Pass) error {
	g := &graph{
		pass:    pass,
		facts:   packageFacts(pass),
		edges:   make(map[edge]*witness),
		visited: make(map[*funcFacts]map[string]bool),
	}
	for _, ff := range g.facts.funcs {
		if ff.testFile {
			continue
		}
		g.walk(ff, nil, []string{ff.display})
	}
	g.report()
	return nil
}

// heldKey canonicalises the held multiset for memoization.
func heldKey(h []lockClass) string {
	if len(h) == 0 {
		return ""
	}
	classes := make([]string, len(h))
	for i, c := range h {
		classes[i] = string(c)
	}
	sort.Strings(classes)
	return strings.Join(classes, "|")
}

// walk processes one function's events in source order with the given
// inherited held set, recording edges and descending into same-package
// callees.
func (g *graph) walk(ff *funcFacts, heldIn []lockClass, path []string) {
	key := heldKey(heldIn)
	if seen := g.visited[ff]; seen != nil && seen[key] {
		return
	}
	if g.visited[ff] == nil {
		g.visited[ff] = make(map[string]bool)
	}
	g.visited[ff][key] = true

	hs := append([]lockClass(nil), heldIn...)
	for _, ev := range ff.events {
		switch ev.kind {
		case evAcquire:
			for _, h := range hs {
				e := edge{from: h, to: ev.lock}
				if _, ok := g.edges[e]; !ok {
					g.edges[e] = &witness{
						path: append([]string(nil), path...),
						pos:  ev.pos,
					}
				}
			}
			hs = append(hs, ev.lock)
		case evRelease:
			// Release the most recent acquisition of this class — which
			// may be one inherited from the caller (a lock-handoff
			// helper unlocking on the caller's behalf).
			for i := len(hs) - 1; i >= 0; i-- {
				if hs[i] == ev.lock {
					hs = append(hs[:i], hs[i+1:]...)
					break
				}
			}
		case evCall:
			if len(hs) == 0 {
				// Nothing held: the callee's own acquisitions generate
				// their edges when it is walked as a root.
				continue
			}
			if callee, ok := g.facts.byObj[ev.callee]; ok && !callee.testFile {
				g.walk(callee, hs, append(append([]string(nil), path...), callee.display))
			}
		}
	}
}

// report finds cycles among the recorded edges and emits one diagnostic
// per cycle, anchored at the first edge's acquisition site, quoting the
// witnessing call path of every edge on the cycle.
func (g *graph) report() {
	keys := make([]edge, 0, len(g.edges))
	for e := range g.edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	pkgPath := g.pass.Pkg.Path()
	adj := make(map[lockClass][]lockClass)
	for _, e := range keys {
		if e.from == e.to {
			// Acquiring a class already held: sync mutexes are not
			// reentrant, so this self-deadlocks whenever the two
			// acquisitions hit the same instance.
			w := g.edges[e]
			g.pass.Reportf(w.pos,
				"lock %s acquired while an instance of %s is already held (path %s): sync mutexes are not reentrant — potential self-deadlock",
				e.to.short(pkgPath), e.from.short(pkgPath), strings.Join(w.path, " → "))
			continue
		}
		adj[e.from] = append(adj[e.from], e.to)
	}
	var nodes []lockClass
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	reported := map[string]bool{}
	for _, start := range nodes {
		g.findCycles(start, start, []lockClass{start}, adj, reported, pkgPath)
	}
}

// findCycles walks simple paths from start (the canonically smallest
// node of any cycle it reports) looking for a return to start.
func (g *graph) findCycles(start, cur lockClass, path []lockClass, adj map[lockClass][]lockClass, reported map[string]bool, pkgPath string) {
	for _, next := range adj[cur] {
		if next == start && len(path) > 1 {
			canon := canonicalCycle(path)
			if !reported[canon] {
				reported[canon] = true
				g.reportCycle(path, pkgPath)
			}
			continue
		}
		// Only explore nodes greater than start so each cycle is found
		// exactly once, from its smallest node.
		if next <= start || containsClass(path, next) {
			continue
		}
		g.findCycles(start, next, append(path, next), adj, reported, pkgPath)
	}
}

func containsClass(path []lockClass, c lockClass) bool {
	for _, p := range path {
		if p == c {
			return true
		}
	}
	return false
}

func canonicalCycle(cyc []lockClass) string {
	s := make([]string, len(cyc))
	for i, c := range cyc {
		s[i] = string(c)
	}
	sort.Strings(s)
	return strings.Join(s, "|")
}

// reportCycle emits one diagnostic for the cycle a→b→…→a, anchored at
// the first edge's acquisition site, with every edge's witness path.
func (g *graph) reportCycle(cyc []lockClass, pkgPath string) {
	n := len(cyc)
	var order []string
	var wits []string
	var anchor *witness
	for i := 0; i < n; i++ {
		e := edge{from: cyc[i], to: cyc[(i+1)%n]}
		w := g.edges[e]
		if w == nil {
			return
		}
		if anchor == nil {
			anchor = w
		}
		pos := g.pass.Fset.Position(w.pos)
		order = append(order, e.from.short(pkgPath))
		wits = append(wits, fmt.Sprintf("%s acquired while %s held at %s:%d (path %s)",
			e.to.short(pkgPath), e.from.short(pkgPath), shortFile(pos.Filename), pos.Line, strings.Join(w.path, " → ")))
	}
	order = append(order, cyc[0].short(pkgPath))
	g.pass.Reportf(anchor.pos, "potential deadlock: lock-order cycle %s — %s",
		strings.Join(order, " → "), strings.Join(wits, "; "))
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
