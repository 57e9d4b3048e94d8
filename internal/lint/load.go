package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/prefetcher", or the
	// fixture-relative path under a test source root).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader resolves and type-checks packages from source: the enclosing
// module (found via go.mod), an optional extra GOPATH-style source root
// (analyzer fixtures), and the standard library from GOROOT/src. It is
// stdlib-only — no export data, no network, no go/packages — which is
// what lets prefetchvet run in hermetic builds. Cgo is disabled so
// packages with cgo fallbacks (net, os/user) type-check pure-Go.
type Loader struct {
	Fset *token.FileSet
	// SrcRoot, when set, is a GOPATH-style src directory consulted
	// before the module: import path p resolves to SrcRoot/p. The
	// fixture runner points this at testdata/src.
	SrcRoot string

	ctxt       build.Context
	moduleDir  string
	modulePath string
	pkgs       map[string]*loadEntry
}

type loadEntry struct {
	pkg *Package
	err error
	// loading marks an import in progress, to fail import cycles
	// instead of recursing forever.
	loading bool
}

// NewLoader returns a loader rooted at the module containing dir (dir
// itself need not be the module root). With no go.mod above dir the
// loader still works for stdlib and SrcRoot imports.
func NewLoader(dir string) (*Loader, error) {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	l := &Loader{
		Fset: token.NewFileSet(),
		ctxt: ctxt,
		pkgs: make(map[string]*loadEntry),
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for d := abs; ; {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			l.moduleDir = d
			l.modulePath = modulePath(string(data))
			break
		}
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	return l, nil
}

// modulePath extracts the module path from go.mod content.
func modulePath(mod string) string {
	for _, line := range strings.Split(mod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// ModulePackages returns the import paths of every package in the
// loader's module, in sorted order, skipping testdata and hidden
// directories. Patterns: "./..." (everything) or "./x/..." or "./x"
// relative to the module root; absent patterns mean "./...".
func (l *Loader) ModulePackages(patterns ...string) ([]string, error) {
	if l.moduleDir == "" {
		return nil, fmt.Errorf("lint: no module root found")
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var all []string
	err := filepath.WalkDir(l.moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || (len(name) > 1 && (name[0] == '.' || name[0] == '_')) {
			return filepath.SkipDir
		}
		if bp, err := l.ctxt.ImportDir(path, 0); err == nil && len(bp.GoFiles)+len(bp.TestGoFiles) > 0 {
			rel, _ := filepath.Rel(l.moduleDir, path)
			ip := l.modulePath
			if rel != "." {
				ip = l.modulePath + "/" + filepath.ToSlash(rel)
			}
			all = append(all, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(all)
	var out []string
	seen := make(map[string]bool)
	for _, pat := range patterns {
		for _, ip := range all {
			if matchPattern(l.modulePath, pat, ip) && !seen[ip] {
				seen[ip] = true
				out = append(out, ip)
			}
		}
	}
	return out, nil
}

// matchPattern reports whether import path ip (inside module mod)
// matches pattern pat ("./...", "./dir/...", "./dir", or a full import
// path, with the same "..." wildcard).
func matchPattern(mod, pat, ip string) bool {
	pat = strings.TrimSuffix(pat, "/")
	if rest, ok := strings.CutPrefix(pat, "./"); ok {
		pat = mod
		if rest != "" {
			pat = mod + "/" + rest
		}
	} else if pat == "." {
		pat = mod
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return ip == prefix || strings.HasPrefix(ip, prefix+"/")
	}
	if pat == "..." {
		return true
	}
	return ip == pat
}

// Load type-checks the package with the given import path (see
// NewLoader for resolution order). Results are cached per loader.
func (l *Loader) Load(path string) (*Package, error) {
	return l.load(path, false)
}

// LoadWithTests type-checks the package including its in-package
// _test.go files (external _test packages are not included).
func (l *Loader) LoadWithTests(path string) (*Package, error) {
	return l.load(path, true)
}

func (l *Loader) load(path string, withTests bool) (*Package, error) {
	key := path
	if withTests {
		key = path + " [tests]"
	}
	if e, ok := l.pkgs[key]; ok {
		if e.loading {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	e := &loadEntry{loading: true}
	l.pkgs[key] = e
	e.pkg, e.err = l.typecheck(path, withTests)
	e.loading = false
	return e.pkg, e.err
}

// resolveDir maps an import path to its source directory.
func (l *Loader) resolveDir(path string) (string, error) {
	if path == "C" {
		return "", fmt.Errorf("lint: cgo pseudo-package %q not supported", path)
	}
	if l.SrcRoot != "" {
		dir := filepath.Join(l.SrcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	if l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		return filepath.Join(l.moduleDir, filepath.FromSlash(rel)), nil
	}
	// Stdlib packages import their bundled third-party dependencies by
	// unvendored path (net → golang.org/x/net/dns/dnsmessage, net/http
	// → golang.org/x/net/http/httpguts, …); go/build resolves those
	// through GOROOT/src/vendor only when the importing file is itself
	// inside GOROOT, which this importer does not track — so consult
	// that tree explicitly. The module has no external dependencies, so
	// the vendor copy cannot shadow a real module import.
	if vdir := filepath.Join(l.ctxt.GOROOT, "src", "vendor", filepath.FromSlash(path)); dirExists(vdir) {
		return vdir, nil
	}
	bp, err := l.ctxt.Import(path, l.moduleDir, build.FindOnly)
	if err != nil {
		return "", fmt.Errorf("lint: cannot resolve import %q: %w", path, err)
	}
	return bp.Dir, nil
}

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

func (l *Loader) typecheck(path string, withTests bool) (*Package, error) {
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	names := bp.GoFiles
	if withTests {
		names = append(append([]string{}, names...), bp.TestGoFiles...)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: %s: no Go files in %s", path, dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			if ipath == "unsafe" {
				return types.Unsafe, nil
			}
			p, err := l.load(ipath, false)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
