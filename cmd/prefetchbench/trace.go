package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/workload"
	"repro/prefetcher"
)

// traceBenchConfig parameterises the trace-replay benchmark mode.
type traceBenchConfig struct {
	Path      string
	Bandwidth float64
	Workers   int
	CacheCap  int
	// Shards lists the shard counts to sweep, as in -engine mode.
	Shards []int
	// JSON emits one machine-readable report instead of text.
	JSON bool
}

// runTraceBench replays a recorded trace through the public engine: one
// concurrent client per trace user, each replaying that user's
// reference sequence in order. Where -engine measures the facade on a
// synthetic generator, this measures it on recorded reference structure
// — the trace fixes the no-prefetch hit ratio h′ and the predictability
// p the paper's model takes as inputs, so the throughput and the
// ĥ′/used/wasted block are read off a real (or recorded-synthetic)
// stream rather than the Zipf loop. Item sizes come from the trace
// records, so ŝ̄ and ρ̂′ reflect the recorded catalog; they are served
// by one zero-latency in-process origin.
func runTraceBench(w io.Writer, cfg traceBenchConfig) error {
	f, err := os.Open(cfg.Path)
	if err != nil {
		return fmt.Errorf("trace mode: %w", err)
	}
	records, err := workload.NewTraceReader(f).ReadAll()
	f.Close()
	if err != nil {
		return fmt.Errorf("trace mode: %w", err)
	}
	if len(records) == 0 {
		return fmt.Errorf("trace mode: %s holds no records", cfg.Path)
	}
	if cfg.CacheCap < 2 {
		return fmt.Errorf("trace mode: -cache %d must be >= 2 (SLRU needs a protected segment)", cfg.CacheCap)
	}

	// The fetch path serves the sizes the trace recorded.
	sizes := make(map[prefetcher.ID]float64, len(records))
	userSet := make(map[int]bool)
	for _, r := range records {
		sizes[r.Item] = r.Size
		userSet[r.User] = true
	}
	users := make([]int, 0, len(userSet))
	for u := range userSet {
		users = append(users, u)
	}
	sort.Ints(users)

	// One replay source per user, built once: each sweep entry rewinds
	// them to the head of the sequence instead of rescanning the whole
	// record set per run.
	replays := make([]*workload.Replay, len(users))
	for i, u := range users {
		r, err := workload.NewReplay(records, u, false)
		if err != nil {
			return fmt.Errorf("trace mode: %w", err)
		}
		replays[i] = r
	}

	if !cfg.JSON {
		fmt.Fprintf(w, "trace replay: %s — %d records, %d users (one client each), %d workers, b=%g\n",
			cfg.Path, len(records), len(users), cfg.Workers, cfg.Bandwidth)
	}
	return benchSweep{
		mode: "trace",
		origin: prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
			size, ok := sizes[id]
			if !ok {
				size = 1 // speculative fetch of an item the trace never requests
			}
			return prefetcher.Item{ID: id, Size: size}, nil
		}),
		clients: func() []benchClient {
			cs := make([]benchClient, len(replays))
			for i, r := range replays {
				r := r
				r.Rewind()
				cs[i] = benchClient{fmt.Sprintf("user %d", users[i]), func() (prefetcher.ID, bool) {
					if r.Exhausted() {
						return 0, false
					}
					return r.Next(), true
				}}
			}
			return cs
		},
		replay:    len(records),
		bandwidth: cfg.Bandwidth, workers: cfg.Workers, cacheCap: cfg.CacheCap,
	}.run(w, cfg.Shards, newBenchReport("trace", benchConfig{
		Trace: cfg.Path, Bandwidth: cfg.Bandwidth, Workers: cfg.Workers,
		CacheCap: cfg.CacheCap,
	}), cfg.JSON)
}
