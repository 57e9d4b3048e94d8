// Package linttest runs an analyzer over fixture packages and matches
// its findings against // want comments — the same contract as
// golang.org/x/tools/go/analysis/analysistest, reimplemented over the
// repo's stdlib-only lint kit.
//
// Fixtures live in a GOPATH-style tree: dir/src/<importpath>/*.go.
// A line expecting a finding carries a trailing comment
//
//	// want `regexp`
//
// and every reported diagnostic must land on a line whose want pattern
// matches its message; every want must be matched by exactly one
// diagnostic. Lines with //lint:allow waivers prove the waiver path:
// they must NOT produce diagnostics.
package linttest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/lint"
)

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// Run loads dir/src/<path> (including in-package test files, so
// fixtures can exercise the analyzers' test-file exemption), applies
// the analyzer, and compares diagnostics against the // want comments.
func Run(t *testing.T, dir string, a *lint.Analyzer, paths ...string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	l.SrcRoot = filepath.Join(abs, "src")
	for _, path := range paths {
		pkg, err := l.LoadWithTests(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		check(t, pkg, diags)
	}
}

type wantEntry struct {
	pos token.Position
	re  *regexp.Regexp
	hit bool
}

func check(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	// Collect wants from the fixture source.
	wants := make(map[string][]*wantEntry) // file:line -> entries
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := posKey(pos.Filename, pos.Line)
					wants[key] = append(wants[key], &wantEntry{pos: pos, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		key := posKey(d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: no diagnostic matched want `%s`", w.pos, w.re)
			}
		}
	}
}

func posKey(file string, line int) string {
	return filepath.Clean(file) + ":" + strconv.Itoa(line)
}
