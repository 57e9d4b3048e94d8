// Package experiments regenerates every figure of the paper and the
// validation/comparison tables derived from its claims (DESIGN.md's
// experiment index). Each experiment is addressed by id — F1..F3 for
// the paper's figures, T1..T8 for the derived tables — and produces one
// or more stats.Tables that cmd/prefetchbench renders as text, CSV or
// markdown, and that bench_test.go regenerates under `go test -bench`.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks simulation sizes for smoke tests and benchmarks;
	// the full sizes are what `prefetchbench -run` prints.
	Quick bool
	// Seed drives all simulation randomness (0 = default 1).
	Seed uint64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// requests returns a simulation size scaled by Quick.
func (o Options) requests(full int) int {
	if o.Quick {
		return full / 10
	}
	return full
}

// Experiment is one regenerable artifact.
type Experiment struct {
	// ID is the experiment identifier (F1..F3, T1..T8).
	ID string
	// Title describes what it reproduces.
	Title string
	// Run generates the result tables.
	Run func(Options) ([]*stats.Table, error)
}

// registry holds all experiments keyed by id.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %s", e.ID))
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids())
	}
	return e, nil
}

// All returns every experiment sorted by id (figures first, then
// tables).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if a[0] != b[0] {
			return a[0] == 'F' // figures before tables
		}
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

func ids() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}
