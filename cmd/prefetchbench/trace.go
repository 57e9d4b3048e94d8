package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

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
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1}
	}

	// The fetch path serves the sizes the trace recorded.
	sizes := make(map[prefetcher.ID]float64, len(records))
	userSet := make(map[int]bool)
	for _, r := range records {
		sizes[prefetcher.ID(r.Item)] = r.Size
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

	text := !cfg.JSON
	if text {
		fmt.Fprintf(w, "trace replay: %s — %d records, %d users (one client each), %d workers, b=%g\n",
			cfg.Path, len(records), len(users), cfg.Workers, cfg.Bandwidth)
	}
	report := newBenchReport("trace", benchConfig{
		Trace: cfg.Path, Bandwidth: cfg.Bandwidth, Workers: cfg.Workers,
		CacheCap: cfg.CacheCap,
	})

	var baseline float64
	var baselineShards int
	for _, shards := range cfg.Shards {
		res, err := runTraceBenchOnce(w, cfg, len(records), users, sizes, replays, shards, text)
		if err != nil {
			return err
		}
		report.Runs = append(report.Runs, res.rep)
		if baseline == 0 {
			baseline, baselineShards = res.rps, res.shards
		} else if text {
			fmt.Fprintf(w, "  speedup          %.2fx vs %d-shard run\n", res.rps/baseline, baselineShards)
		}
	}
	if cfg.JSON {
		return report.emit(w)
	}
	return nil
}

// runTraceBenchOnce replays the whole trace once through a fresh engine
// with the given shard count, rewinding the shared per-user replays.
func runTraceBenchOnce(w io.Writer, cfg traceBenchConfig, records int,
	users []int, sizes map[prefetcher.ID]float64, replays []*workload.Replay, shards int, text bool) (engineRun, error) {
	direct := prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		size, ok := sizes[id]
		if !ok {
			size = 1 // speculative fetch of an item the trace never requests
		}
		return prefetcher.Item{ID: id, Size: size}, nil
	})
	eng, shards, err := newBenchEngine("trace", direct, cfg.Bandwidth, cfg.Workers, cfg.CacheCap, shards)
	if err != nil {
		return engineRun{}, err
	}
	defer eng.Close()

	for _, r := range replays {
		r.Rewind()
	}

	ctx := context.Background()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstErr  error
		completed int
	)
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for i, u := range users {
		wg.Add(1)
		go func(u int, rep *workload.Replay) {
			defer wg.Done()
			n := 0
			var clientErr error
			for !rep.Exhausted() {
				id := rep.Next()
				if _, err := eng.Get(ctx, prefetcher.ID(id)); err != nil {
					clientErr = fmt.Errorf("user %d after %d requests: %w", u, n, err)
					break
				}
				n++
			}
			mu.Lock()
			completed += n
			if clientErr != nil && firstErr == nil {
				firstErr = clientErr
			}
			mu.Unlock()
		}(u, replays[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	if firstErr != nil {
		return engineRun{}, firstErr
	}
	perf := measurePerf(&msBefore, &msAfter, completed, elapsed)
	if err := eng.Quiesce(ctx); err != nil {
		return engineRun{}, err
	}

	st := eng.Stats()
	rps := float64(completed) / elapsed.Seconds()
	if text {
		fmt.Fprintf(w, "shards=%d\n", st.Shards)
		fmt.Fprintf(w, "  replayed         %d/%d trace requests\n", completed, records)
		reportRun(w, st, rps, elapsed, perf)
	}
	return engineRun{rps: rps, shards: shards, rep: newRunReport(st, completed, rps, elapsed, perf)}, nil
}
