package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/workload"
	"repro/prefetcher"
)

// measurePerf turns the process-wide allocation deltas of one run into
// per-request costs. Call runtime.ReadMemStats into before/after around
// the timed section.
func measurePerf(before, after *runtime.MemStats, completed int, elapsed time.Duration) perfReport {
	if completed <= 0 {
		return perfReport{}
	}
	n := float64(completed)
	return perfReport{
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}

// engineBenchConfig parameterises the live-engine benchmark mode.
type engineBenchConfig struct {
	Clients   int
	Requests  int // per client
	Bandwidth float64
	Workers   int
	CacheCap  int
	Items     int
	Seed      uint64
	// Shards lists the shard counts to sweep; each entry gets its own
	// run so the report shows throughput per shard count.
	Shards []int
	// JSON emits one machine-readable report instead of text.
	JSON bool
}

// parseShardList parses the -shards flag: a comma-separated list of
// shard counts, e.g. "1,4,8".
func parseShardList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("engine mode: bad shard count %q (want a positive integer list like 1,4,8)", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("engine mode: -shards lists no counts")
	}
	return out, nil
}

// runEngineBench hammers one shared prefetcher.Engine with concurrent
// demand traffic — the public-API counterpart of the DES experiments:
// it measures what the facade itself sustains (lock contention, worker
// pool, in-flight dedup) rather than simulated network time, on a
// zero-latency in-process origin. Each client walks its own Markov
// browsing session over a shared catalog, as in the full-system
// simulator. It repeats the run once per requested shard count and
// reports throughput per count.
func runEngineBench(w io.Writer, cfg engineBenchConfig) error {
	if cfg.Clients < 1 || cfg.Requests < 1 {
		return fmt.Errorf("engine mode: -clients %d and -requests %d must be >= 1", cfg.Clients, cfg.Requests)
	}
	if cfg.CacheCap < 2 {
		return fmt.Errorf("engine mode: -cache %d must be >= 2 (SLRU needs a protected segment)", cfg.CacheCap)
	}
	if cfg.Items < 1 {
		return fmt.Errorf("engine mode: -items %d must be >= 1", cfg.Items)
	}
	if !cfg.JSON {
		fmt.Fprintf(w, "live engine benchmark: %d clients × %d requests, %d workers, b=%g\n",
			cfg.Clients, cfg.Requests, cfg.Workers, cfg.Bandwidth)
	}
	return benchSweep{
		mode: "engine",
		origin: prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
			return prefetcher.Item{ID: id, Size: 1}, nil
		}),
		clients: func() []benchClient {
			cs := make([]benchClient, cfg.Clients)
			for c := range cs {
				site := workload.NewMarkov(workload.MarkovConfig{
					N: cfg.Items, Fanout: 2, Decay: 0.15, Restart: 0.03,
				}, rng.New(cfg.Seed+uint64(c)*1315423911))
				left := cfg.Requests
				cs[c] = benchClient{fmt.Sprintf("client %d", c), func() (prefetcher.ID, bool) {
					if left == 0 {
						return 0, false
					}
					left--
					return site.Next(), true
				}}
			}
			return cs
		},
		bandwidth: cfg.Bandwidth, workers: cfg.Workers, cacheCap: cfg.CacheCap,
	}.run(w, cfg.Shards, newBenchReport("engine", benchConfig{
		Clients: cfg.Clients, Requests: cfg.Requests, Bandwidth: cfg.Bandwidth,
		Workers: cfg.Workers, CacheCap: cfg.CacheCap, Items: cfg.Items,
		Seed: cfg.Seed,
	}), cfg.JSON)
}

// benchClient is one concurrent client of a bench run: its name in an
// error, and the ids it requests in order until next reports false.
type benchClient struct {
	name string
	next func() (prefetcher.ID, bool)
}

// benchSweep is one bench mode's shard sweep: the origin its engines
// fetch from and its clients, built afresh (or rewound) for each run.
// Both modes measure through run, so their numbers stay comparable.
type benchSweep struct {
	mode      string // "engine" or "trace", in errors
	origin    prefetcher.Fetcher
	clients   func() []benchClient
	replay    int // the records each -trace run replays, printed per run
	bandwidth float64
	workers   int
	cacheCap  int
}

// run measures the sweep once per shard count and prints each run and
// its speedup over the first, or emits report as JSON.
func (s benchSweep) run(w io.Writer, shardList []int, report *benchReport, json bool) error {
	if len(shardList) == 0 {
		shardList = []int{1}
	}
	var baseline float64
	var baselineShards int
	for _, shards := range shardList {
		rps, shards, err := s.once(w, shards, report, !json)
		if err != nil {
			return err
		}
		if baseline == 0 {
			baseline, baselineShards = rps, shards
		} else if !json {
			fmt.Fprintf(w, "  speedup          %.2fx vs %d-shard run\n", rps/baseline, baselineShards)
		}
	}
	if json {
		return report.emit(w)
	}
	return nil
}

// newBenchEngine assembles the identically configured engine both
// bench modes (-engine and -trace) measure, so their numbers stay
// comparable: the shard count is rounded up to the power of two the
// engine itself would use (so the budget guard and the report match
// the caches the factory actually builds), and the total cache budget
// stays fixed while the shard count varies (remainder spread over the
// first shards) — the sweep isolates contention from capacity. Rather
// than silently inflating tiny budgets, configurations the split
// cannot honour are rejected. Returns the effective shard count.
func newBenchEngine(mode string, fetch prefetcher.Fetcher, bandwidth float64, workers, cacheCap, shards int) (*prefetcher.Engine, int, error) {
	for n := 1; ; n <<= 1 {
		if n >= shards {
			shards = n
			break
		}
	}
	if cacheCap < 2*shards {
		return nil, 0, fmt.Errorf("%s mode: -cache %d cannot give each of %d shards the >= 2 items SLRU needs", mode, cacheCap, shards)
	}
	eng, err := prefetcher.New(fetch,
		prefetcher.WithBandwidth(bandwidth),
		prefetcher.WithShards(shards),
		prefetcher.WithCacheFactory(func(i, n int) prefetcher.Cache {
			per := cacheCap / n
			if i < cacheCap%n {
				per++
			}
			return prefetcher.NewSLRUCache(per, (per+1)/2)
		}),
		prefetcher.WithWorkers(workers),
		prefetcher.WithMaxPrefetch(2),
	)
	if err != nil {
		return nil, 0, err
	}
	return eng, shards, nil
}

// once measures one engine of the requested shard count (rounded up
// to a power of two): every client on its own goroutine until its ids
// run out, then a quiesce. It appends the run to report, prints it when
// text, and returns its throughput and effective shard count.
func (s benchSweep) once(w io.Writer, shards int, report *benchReport, text bool) (float64, int, error) {
	eng, shards, err := newBenchEngine(s.mode, s.origin, s.bandwidth, s.workers, s.cacheCap, shards)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()

	ctx := context.Background()
	clients := s.clients()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstErr  error
		completed int
	)
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c benchClient) {
			defer wg.Done()
			n := 0
			var clientErr error
			for id, ok := c.next(); ok; id, ok = c.next() {
				if _, err := eng.Get(ctx, id); err != nil {
					clientErr = fmt.Errorf("%s after %d requests: %w", c.name, n, err)
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
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	if firstErr != nil {
		return 0, 0, firstErr
	}
	perf := measurePerf(&msBefore, &msAfter, completed, elapsed)
	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = eng.Quiesce(qctx)
	cancel()
	if err != nil {
		return 0, 0, fmt.Errorf("%s mode: quiesce: %w", s.mode, err)
	}

	st := eng.Stats()
	rps := float64(completed) / elapsed.Seconds()
	if text {
		fmt.Fprintf(w, "shards=%d\n", st.Shards)
		if s.replay > 0 {
			fmt.Fprintf(w, "  replayed         %d/%d trace requests\n", completed, s.replay)
		}
		reportRun(w, st, rps, elapsed, perf)
	}
	report.Runs = append(report.Runs, newRunReport(st, completed, rps, elapsed, perf))
	return rps, shards, nil
}

// reportRun prints the per-run block shared by the -engine and -trace
// modes: throughput, the access model, the online estimates, the
// prefetch accounting and one line per backend with its link estimates
// (every engine runs on the fetch fabric, its one backend named
// "origin").
func reportRun(w io.Writer, st prefetcher.Stats, rps float64, elapsed time.Duration, perf perfReport) {
	fmt.Fprintf(w, "  wall time        %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  throughput       %.0f requests/s\n", rps)
	fmt.Fprintf(w, "  per request      %.0f ns/op, %.2f allocs/op, %.0f B/op (process-wide)\n",
		perf.NsPerOp, perf.AllocsPerOp, perf.BytesPerOp)
	fmt.Fprintf(w, "  predictor        %s\n", st.Predictor)
	fmt.Fprintf(w, "  hit ratio        %.4f\n", st.HitRatio())
	fmt.Fprintf(w, "  ĥ′ (Section 4)   %.4f\n", st.HPrime)
	fmt.Fprintf(w, "  ρ̂′ online        %.4f\n", st.RhoPrime)
	fmt.Fprintf(w, "  p̂_th             %.4f\n", st.Threshold)
	fmt.Fprintf(w, "  n̄(F)             %.4f\n", st.NF)
	fmt.Fprintf(w, "  prefetches       issued=%d used=%d wasted=%d dropped=%d errors=%d (accuracy %.3f)\n",
		st.PrefetchIssued, st.PrefetchUsed, st.PrefetchWasted,
		st.PrefetchDropped, st.PrefetchErrors, st.Accuracy())
	fmt.Fprintf(w, "  joins            %d demand requests coalesced onto in-flight prefetches\n", st.Joins)
	for _, b := range st.Backends {
		fmt.Fprintf(w, "  backend %-8s ρ̂=%.3f ρ̂′=%.3f b̂=%.3g lat=%.2fms p95=%.2fms demand=%d spec=%d err=%d\n",
			b.Name, b.Rho, b.RhoPrime, b.Bandwidth,
			b.LatencySeconds*1e3, b.LatencyP95Seconds*1e3,
			b.Demand, b.Speculative, b.Errors)
	}
}
