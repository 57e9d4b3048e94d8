// Package lint is the repo's static-analysis kit: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) plus the loading and waiver machinery the
// prefetchvet analyzers share.
//
// The two analyzers under internal/lint/* encode the engine's locking
// invariants, which no test observes — for each, a bug planted in its
// class passed tier-1, go vet, the race detector and the alloc gates:
//
//   - lockscope: no blocking operation under a mutex, and every Lock is
//     paired with an Unlock on all exit paths
//   - lockorder: the cross-function lock-acquisition graph must stay
//     acyclic (cycles are potential deadlocks, reported with the
//     witnessing call paths)
//
// Allocation is not checked here: the runtime alloc gates
// (go test -run 'AllocFree|AllocCeiling' without -race) measure every
// per-request path, which a syntactic check could only guess at.
//
// Deliberate exceptions are waived in source with
//
//	//lint:allow <analyzer> <reason>
//
// on (or immediately above) the offending line; the reason is mandatory.
// A run of the whole suite (RunSuite) also reports every waiver that
// suppressed nothing, including one naming no analyzer in the suite.
// The kit is stdlib-only so the tree builds with no module downloads —
// x/tools is deliberately not a dependency.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// waivers. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by prefetchvet -help.
	Doc string
	// Run applies the check to one package, reporting findings through
	// pass.Report. A returned error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. The analyzers
// skip test files: the invariants guard the production hot path, and
// tests legitimately use ad-hoc locking and allocation-heavy helpers.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// --- //lint:allow waivers ------------------------------------------------

const allowPrefix = "//lint:allow "

// allowKey identifies one waivable source line for one analyzer.
type allowKey struct {
	file string
	line int
	name string
}

// waivers indexes every //lint:allow comment in a package: which
// (file, line, analyzer) triples are waived, and which waiver comments
// are malformed (no reason given).
type waivers struct {
	// allowed maps each waiver to the position of its comment, so stale
	// waivers can be reported where they sit.
	allowed map[allowKey]token.Position
	// used tracks which waivers suppressed at least one diagnostic, so
	// stale waivers can be reported.
	used      map[allowKey]bool
	malformed []Diagnostic
}

// collectWaivers scans the files' comments for //lint:allow directives.
// A waiver on line N covers diagnostics on lines N and N+1 — i.e. it can
// trail the offending statement or sit on its own line above it.
func collectWaivers(fset *token.FileSet, files []*ast.File) *waivers {
	w := &waivers{allowed: make(map[allowKey]token.Position), used: make(map[allowKey]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, strings.TrimSpace(allowPrefix)) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, strings.TrimSpace(allowPrefix)))
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					w.malformed = append(w.malformed, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\" (a reason is mandatory)",
					})
					continue
				}
				w.allowed[allowKey{pos.Filename, pos.Line, fields[0]}] = pos
			}
		}
	}
	return w
}

// filter drops the diagnostics covered by a waiver, marking the waiver
// used, and appends any malformed-waiver findings.
func (w *waivers) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		waived := false
		for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
			k := allowKey{d.Pos.Filename, line, d.Analyzer}
			if _, ok := w.allowed[k]; ok {
				w.used[k] = true
				waived = true
				break
			}
		}
		if !waived {
			out = append(out, d)
		}
	}
	return append(out, w.malformed...)
}

// stale reports every waiver that suppressed nothing in this run: a
// //lint:allow whose finding has been fixed, or whose name is no analyzer
// in names — a typo, or an analyzer since deleted. Only a run of the
// whole suite can judge a waiver; a run of a subset (the fixture tests)
// must not call this.
func (w *waivers) stale(names map[string]bool) []Diagnostic {
	var out []Diagnostic
	for k, pos := range w.allowed {
		if w.used[k] {
			continue
		}
		msg := fmt.Sprintf("stale //lint:allow %s: it suppressed nothing — delete it", k.name)
		if !names[k.name] {
			msg = fmt.Sprintf("//lint:allow %s names no analyzer in the suite — fix the name or delete the waiver", k.name)
		}
		out = append(out, Diagnostic{Analyzer: "lint", Pos: pos, Message: msg})
	}
	return out
}

// --- driver --------------------------------------------------------------

// RunAnalyzers applies each analyzer to the package and returns the
// surviving diagnostics, sorted by position (waivers applied, test files
// already skipped by the analyzers themselves).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	out, _, err := run(pkg, analyzers)
	sortDiags(out)
	return out, err
}

// RunSuite is RunAnalyzers for a run of the whole suite: every waiver
// that suppressed nothing is a finding too (see waivers.stale).
func RunSuite(pkg *Package, suite []*Analyzer) ([]Diagnostic, error) {
	out, w, err := run(pkg, suite)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(suite))
	for _, a := range suite {
		names[a.Name] = true
	}
	out = append(out, w.stale(names)...)
	sortDiags(out)
	return out, nil
}

func run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, *waivers, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	w := collectWaivers(pkg.Fset, pkg.Files)
	return w.filter(diags), w, nil
}

// sortDiags orders diagnostics by file, line and analyzer.
func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}
