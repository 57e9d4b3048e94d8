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

// engineRun is one finished benchmark run.
type engineRun struct {
	rps    float64
	shards int
	rep    runReport
}

// runEngineBench hammers one shared prefetcher.Engine with concurrent
// demand traffic — the public-API counterpart of the DES experiments:
// it measures what the facade itself sustains (lock contention, worker
// pool, in-flight dedup) rather than simulated network time. It repeats
// the run once per requested shard count and reports throughput per
// count.
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
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1}
	}
	text := !cfg.JSON
	report := newBenchReport("engine", benchConfig{
		Clients: cfg.Clients, Requests: cfg.Requests, Bandwidth: cfg.Bandwidth,
		Workers: cfg.Workers, CacheCap: cfg.CacheCap, Items: cfg.Items,
		Seed: cfg.Seed,
	})
	if text {
		fmt.Fprintf(w, "live engine benchmark: %d clients × %d requests, %d workers, b=%g\n",
			cfg.Clients, cfg.Requests, cfg.Workers, cfg.Bandwidth)
	}

	var baseline float64
	var baselineShards int
	for _, shards := range cfg.Shards {
		res, err := runEngineBenchOnce(w, cfg, shards, text)
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
		prefetcher.WithPredictor(prefetcher.NewMarkovPredictor()),
		prefetcher.WithWorkers(workers),
		prefetcher.WithMaxPrefetch(2),
	)
	if err != nil {
		return nil, 0, err
	}
	return eng, shards, nil
}

// runEngineBenchOnce measures one engine configuration on a
// zero-latency in-process origin: shards is the requested shard count
// (rounded up to a power of two).
func runEngineBenchOnce(w io.Writer, cfg engineBenchConfig, shards int, text bool) (engineRun, error) {
	direct := prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		return prefetcher.Item{ID: id, Size: 1}, nil
	})
	eng, shards, err := newBenchEngine("engine", direct, cfg.Bandwidth, cfg.Workers, cfg.CacheCap, shards)
	if err != nil {
		return engineRun{}, err
	}
	defer eng.Close()

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
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Per-client Markov browsing sessions over a shared catalog,
			// as in the full-system simulator.
			src := rng.New(cfg.Seed + uint64(c)*1315423911)
			site := workload.NewMarkov(workload.MarkovConfig{
				N: cfg.Items, Fanout: 2, Decay: 0.15, Restart: 0.03,
			}, src)
			n := 0
			var clientErr error
			for i := 0; i < cfg.Requests; i++ {
				if _, err := eng.Get(ctx, prefetcher.ID(site.Next())); err != nil {
					clientErr = fmt.Errorf("client %d after %d requests: %w", c, n, err)
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
		return engineRun{}, firstErr
	}
	perf := measurePerf(&msBefore, &msAfter, completed, elapsed)
	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = eng.Quiesce(qctx)
	cancel()
	if err != nil {
		return engineRun{}, fmt.Errorf("engine mode: quiesce: %w", err)
	}

	st := eng.Stats()
	rps := float64(completed) / elapsed.Seconds()
	if text {
		fmt.Fprintf(w, "shards=%d\n", st.Shards)
		reportRun(w, st, rps, elapsed, perf)
	}
	return engineRun{rps: rps, shards: shards, rep: newRunReport(st, completed, rps, elapsed, perf)}, nil
}

// reportRun prints the per-run block shared by the -engine and -trace
// modes: throughput, the online estimates, the prefetch accounting,
// whether the predictor ran lock-free — a regression in that line (a
// built-in predictor falling back to the mutex) is a scaling bug even
// when a single-threaded run looks healthy — and one line per backend
// with its link estimates (every engine runs on the fetch fabric, its
// one backend named "origin").
func reportRun(w io.Writer, st prefetcher.Stats, rps float64, elapsed time.Duration, perf perfReport) {
	path := "lock-free (ConcurrentPredictor)"
	if !st.PredictorLockFree {
		path = "compatibility mutex (serialised)"
	}
	fmt.Fprintf(w, "  wall time        %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  throughput       %.0f requests/s\n", rps)
	fmt.Fprintf(w, "  per request      %.0f ns/op, %.2f allocs/op, %.0f B/op (process-wide)\n",
		perf.NsPerOp, perf.AllocsPerOp, perf.BytesPerOp)
	fmt.Fprintf(w, "  predictor        %s via %s\n", st.Predictor, path)
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
