package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceExempt names the exported internal functions that no program
// calls but that stay, each for the reason beside it: a test measures
// the program's code against it, or a test harness builds on it.
var surfaceExempt = map[string]string{
	// The paper's closed forms, references the simulator and the
	// threshold rule are measured against.
	"repro/internal/analytic.RetrievalPerRequest": "eq. 25's R, which internal/sim's measured R is held to",
	"repro/internal/analytic.MarginalGain":        "∂G/∂n_F, whose sign must flip at p_th under each model",
	"repro/internal/analytic.MarginalGainSized":   "the sized ∂G/∂n_F, whose sign must flip at the sized p_th",
	// The queueing closed forms beside PSMeanResponse (eq. 2), which the
	// simulated PS server is held to; queue_test pins each one's value.
	"repro/internal/queue.Utilisation":     "ρ = λx̄/b, the load the PS and link tests set",
	"repro/internal/queue.PSSlowdown":      "the PS slowdown 1/(1−ρ)",
	"repro/internal/queue.PSMeanJobs":      "the PS mean number in system ρ/(1−ρ)",
	"repro/internal/queue.MM1MeanResponse": "the M/M/1 mean response time",
	"repro/internal/queue.MG1FCFSMeanWait": "the M/G/1 FCFS mean wait (Pollaczek–Khinchine)",
	// The replacement orders the shipped store is decided against
	// (TestFilteredStoreEligibility's comparison field).
	"repro/internal/cache.NewFIFO":         "a comparison order of the store decision",
	"repro/internal/cache.NewLFU":          "a comparison order of the store decision",
	"repro/internal/cache.NewClock":        "a comparison order of the store decision",
	"repro/internal/cache.NewRandomPolicy": "a comparison order of the store decision",
	// internal/vlink is test code only: its t̄ CI and its p99.
	"repro/internal/stats.NewBatchMeans": "internal/vlink's t̄ confidence interval",
	"repro/internal/stats.Quantiles":     "internal/vlink's p99",
}

// TestInternalSurfaceHasCallers fails on an exported top-level function
// in the non-test code under internal/ or prefetcher/internal/ that no
// non-test file of the module, or of the bench/ module beside it,
// names. A function only its own tests reach is code without a
// program: delete it, or list it in surfaceExempt with its reason.
// Methods are out of scope, because the observers tests read are
// methods.
func TestInternalSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	named := map[string]bool{} // "import/path.Name" a non-test file names
	type decl struct{ key, pos string }
	var decls []decl
	for _, root := range []struct{ dir, module string }{{".", "repro"}, {"bench", "repro/bench"}} {
		err := filepath.WalkDir(root.dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != root.dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || root.dir == "." && p == "bench") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root.dir, filepath.Dir(p))
			pkg := path.Join(root.module, filepath.ToSlash(rel))
			collectNames(f, pkg, named)
			if !surfaceChecked(pkg) {
				return nil
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
					decls = append(decls, decl{pkg + "." + fn.Name.Name, fset.Position(fn.Pos()).String()})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unnamed []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, exempt := surfaceExempt[d.key]
		switch {
		case named[d.key] && exempt:
			t.Errorf("%s is exempt but a program names it: drop it from surfaceExempt", d.key)
		case !named[d.key] && !exempt:
			unnamed = append(unnamed, d.pos+": "+d.key)
		}
	}
	sort.Strings(unnamed)
	for _, u := range unnamed {
		t.Errorf("%s: no non-test file calls it", u)
	}
	for key := range surfaceExempt {
		if !declared[key] {
			t.Errorf("surfaceExempt lists %s, which is not declared", key)
		}
	}
}

// surfaceChecked reports whether pkg's exported functions must have a
// program caller: the module's internal packages but its test helpers.
func surfaceChecked(pkg string) bool {
	if !strings.HasPrefix(pkg, "repro/internal/") && !strings.HasPrefix(pkg, "repro/prefetcher/internal/") {
		return false
	}
	return pkg != "repro/internal/testutil" && pkg != "repro/internal/lint/linttest"
}

// collectNames adds to named every package-level name f refers to: a
// bare identifier as a name of f's own package, pkg, and a selector on
// an imported package's name as a name of that package. The names f
// declares for its own functions are not references.
func collectNames(f *ast.File, pkg string, named map[string]bool) {
	imports := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Recv, visit)
			}
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					named[p+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			named[pkg+"."+n.Name] = true
		}
		return true
	}
	for _, d := range f.Decls {
		ast.Inspect(d, visit)
	}
}
