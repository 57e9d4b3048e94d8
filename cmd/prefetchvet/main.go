// Command prefetchvet runs the repo's two analyzers (lockorder and
// lockscope — see internal/lint) over the module packages matching its
// arguments, "./..." when there are none:
//
//	go run ./cmd/prefetchvet ./...
//
// Every finding that survives its //lint:allow waivers is printed, and
// so is every waiver that suppressed nothing or names no analyzer in
// the suite; the exit status is 2 when anything was printed. It takes
// no flags. TestTreeClean runs the same check over the whole module in
// tier-1.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/lockorder"
	"repro/internal/lint/lockscope"
)

// analyzers is the fixed suite; the whole point is that the suite is
// the contract, so none can be switched off.
var analyzers = []*lint.Analyzer{
	lockorder.Analyzer,
	lockscope.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("prefetchvet: ")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: prefetchvet [package pattern ...]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	wd, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	diags, err := check(wd, flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// check loads every package of the module around dir that matches the
// patterns and runs the suite on each; the loader (and its type-checked
// stdlib cache) is shared across packages.
func check(dir string, patterns []string) ([]lint.Diagnostic, error) {
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	paths, err := loader.ModulePackages(patterns...)
	if err != nil {
		return nil, err
	}
	var out []lint.Diagnostic
	for _, p := range paths {
		pkg, err := loader.LoadWithTests(p)
		if err != nil {
			return nil, err
		}
		ds, err := lint.RunSuite(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}
