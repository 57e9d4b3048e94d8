package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTreeClean is the tree's analyzer gate: the whole module must be
// free of unwaived findings and of waivers that suppress nothing.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := check(wd, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestCheckFindsViolation drives the driver end to end on a module with
// one function holding two returns with its mutex locked: the unwaived
// one is the only finding, and the waiver on the other suppresses it, so
// it is not reported as stale either.
func TestCheckFindsViolation(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scope\n\ngo 1.22\n",
		"scope.go": "package scope\n\n" +
			"import \"sync\"\n\n" +
			"type S struct{ mu sync.Mutex }\n\n" +
			"func (s *S) Get(n int) int {\n" +
			"\ts.mu.Lock()\n" +
			"\tif n < 0 {\n" +
			"\t\t//lint:allow lockscope cold branch\n" +
			"\t\treturn 0\n" +
			"\t}\n" +
			"\tif n == 0 {\n" +
			"\t\treturn 1\n" +
			"\t}\n" +
			"\ts.mu.Unlock()\n" +
			"\treturn n\n" +
			"}\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := check(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lockscope" || d.Pos.Line != 14 || !strings.HasPrefix(d.Message, "return while s.mu is still locked") {
		t.Errorf("finding = %v, want lockscope's return at line 14", d)
	}
}

// TestWaiverNames runs the suite over a module whose only content is two
// waivers that suppress nothing: one naming an analyzer of the suite and
// one misspelling it. Each must be a finding — a misspelled name waives
// nothing, so it is exactly as stale as a waiver whose finding was fixed.
func TestWaiverNames(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module waivers\n\ngo 1.22\n",
		"w.go": "package waivers\n\n" +
			"//lint:allow lockscope nothing here locks\n\n" +
			"//lint:allow lockscop typo\n\n" +
			"func F() {}\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := check(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		line int
		msg  string
	}{
		{3, "stale //lint:allow lockscope"},
		{5, "//lint:allow lockscop names no analyzer in the suite"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if d.Pos.Line != want[i].line || !strings.HasPrefix(d.Message, want[i].msg) {
			t.Errorf("finding %d = %v, want line %d, message %q…", i, d, want[i].line, want[i].msg)
		}
	}
}

// TestTypedAtomicsOnly holds the tree to typed 64-bit atomics
// (atomic.Int64, atomic.Uint64), which the compiler keeps 8-aligned on
// every platform. A function-style call on a plain int64 or uint64 field
// panics on a 32-bit platform whenever the field's offset is not a
// multiple of 8 — a bug no test on a 64-bit machine can observe.
func TestTypedAtomicsOnly(t *testing.T) {
	call := regexp.MustCompile(`\batomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int64|Uint64)\(`)
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, loc := range call.FindAllIndex(src, -1) {
			line := 1 + bytes.Count(src[:loc[0]], []byte("\n"))
			t.Errorf("%s:%d: %s…) on a plain field: use atomic.Int64 or atomic.Uint64", path, line, src[loc[0]:loc[1]])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
