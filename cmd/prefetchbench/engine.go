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
	"repro/prefetcher/fetch"
)

// measurePerf turns the process-wide allocation deltas of one run into
// per-request costs, plus the garbage-collector's bill for the run.
// Call runtime.ReadMemStats into before/after around the timed section.
// The GC block is what the pointer-free slab store drives down: pause
// time and collection count accumulated over the timed section, the
// process-lifetime GC CPU fraction, and the live heap object count
// after a forced collection — the mark load every future cycle pays.
func measurePerf(before, after *runtime.MemStats, completed int, elapsed time.Duration) perfReport {
	if completed <= 0 {
		return perfReport{}
	}
	// The forced GC below is outside the timed window (after is already
	// captured); it settles the heap so HeapObjects counts live objects,
	// not float garbage.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	n := float64(completed)
	return perfReport{
		NsPerOp:        float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / n,
		GCPauseTotalMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		NumGC:          int64(after.NumGC - before.NumGC),
		GCCPUFraction:  after.GCCPUFraction,
		HeapObjects:    int64(live.HeapObjects),
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
	// Backends selects the multi-backend fabric mode: n >= 1 simulated
	// heterogeneous backends (fast/fat to slow/thin, see simBackends)
	// behind the engine's fetch fabric; 0 gives it one zero-latency
	// in-process origin. With n >= 2 each shard count also runs a single-backend
	// baseline so the fabric's aggregate throughput is compared
	// against it in one invocation.
	Backends int
	// Hedge enables hedged retries (p95-derived delay) in fabric mode.
	Hedge bool
	// Watermark sets the idle-gate ρ̂ watermark in fabric mode (0 = no
	// gate).
	Watermark float64
	// Session switches to the batched session benchmark: each request
	// becomes one page-load session of Session correlated keys issued
	// through Engine.GetMultiInto, compared against a per-key Get loop
	// over identical streams (0 = per-key mode).
	Session int
	// MMPP, when non-empty, paces each client's arrivals by a two-state
	// Markov-modulated Poisson process: "rateHigh,rateLow,meanHigh,meanLow"
	// (rates in arrivals/s, sojourns in seconds).
	MMPP string
	// JSON emits one machine-readable report instead of text.
	JSON bool
}

// parseMMPP parses the -mmpp flag into the workload config, mirroring
// workload.NewMMPP's validity rules as errors rather than panics.
func parseMMPP(s string) (workload.MMPPConfig, error) {
	fields := strings.Split(s, ",")
	if len(fields) != 4 {
		return workload.MMPPConfig{}, fmt.Errorf("engine mode: -mmpp %q: want 'rateHigh,rateLow,meanHigh,meanLow'", s)
	}
	vals := make([]float64, 4)
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return workload.MMPPConfig{}, fmt.Errorf("engine mode: -mmpp %q: field %d: %w", s, i+1, err)
		}
		vals[i] = v
	}
	cfg := workload.MMPPConfig{RateHigh: vals[0], RateLow: vals[1], MeanHigh: vals[2], MeanLow: vals[3]}
	if cfg.RateHigh <= 0 || cfg.RateLow < 0 || cfg.RateHigh <= cfg.RateLow {
		return workload.MMPPConfig{}, fmt.Errorf("engine mode: -mmpp rates (high=%v, low=%v) must satisfy high > low >= 0", cfg.RateHigh, cfg.RateLow)
	}
	if cfg.MeanHigh <= 0 || cfg.MeanLow <= 0 {
		return workload.MMPPConfig{}, fmt.Errorf("engine mode: -mmpp sojourns (%v, %v) must be positive", cfg.MeanHigh, cfg.MeanLow)
	}
	return cfg, nil
}

// pacer holds one client's MMPP arrival clock, mapped onto wall time
// from the run's start: wait sleeps until the process's next arrival
// epoch (or not at all when the client is already behind schedule, so
// an overloaded engine degrades to closed-loop rather than deadlocking
// the schedule).
type pacer struct {
	m     *workload.MMPP
	start time.Time
}

func (p *pacer) wait() {
	target := p.start.Add(time.Duration(p.m.Next() * float64(time.Second)))
	if d := time.Until(target); d > 0 {
		time.Sleep(d)
	}
}

// newPacer builds client c's pacer, or nil when pacing is off.
func newPacer(cfg *workload.MMPPConfig, seed uint64, c int, start time.Time) *pacer {
	if cfg == nil {
		return nil
	}
	// An independent arrival process per client, offset from the
	// workload seeds so pacing and key choice stay uncorrelated.
	src := rng.New((seed ^ 0x9e3779b97f4a7c15) + uint64(c)*2654435761)
	return &pacer{m: workload.NewMMPP(*cfg, src), start: start}
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
// count; with -backends n it instead drives the multi-backend fetch
// fabric (hedging, batching, idle gate) over simulated asymmetric
// links and compares each run against a single-backend baseline.
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
	if cfg.Backends < 0 {
		return fmt.Errorf("engine mode: -backends %d must be >= 0", cfg.Backends)
	}
	if cfg.Watermark < 0 || cfg.Watermark > 1 {
		return fmt.Errorf("engine mode: -watermark %v must be in [0,1]", cfg.Watermark)
	}
	if (cfg.Hedge || cfg.Watermark > 0) && cfg.Backends == 0 {
		return fmt.Errorf("engine mode: -hedge/-watermark need -backends >= 1")
	}
	if cfg.Session < 0 || cfg.Session == 1 {
		return fmt.Errorf("engine mode: -session %d must be 0 (off) or a fan-out >= 2", cfg.Session)
	}
	var mmpp *workload.MMPPConfig
	if cfg.MMPP != "" {
		mc, err := parseMMPP(cfg.MMPP)
		if err != nil {
			return err
		}
		mmpp = &mc
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1}
	}
	text := !cfg.JSON
	report := &benchReport{Mode: "engine", Config: benchConfig{
		Clients: cfg.Clients, Requests: cfg.Requests, Bandwidth: cfg.Bandwidth,
		Workers: cfg.Workers, CacheCap: cfg.CacheCap, Items: cfg.Items,
		Backends: cfg.Backends, Hedge: cfg.Hedge, Watermark: cfg.Watermark,
		Session: cfg.Session, MMPP: cfg.MMPP,
		Seed: cfg.Seed,
	}}
	if cfg.Session > 0 {
		return runSessionBench(w, report, cfg, mmpp, text)
	}
	if text {
		fmt.Fprintf(w, "live engine benchmark: %d clients × %d requests, %d workers, b=%g\n",
			cfg.Clients, cfg.Requests, cfg.Workers, cfg.Bandwidth)
		if cfg.Backends > 0 {
			for _, b := range simBackends(cfg.Backends, cfg.Bandwidth, nil) {
				sim := b.Fetcher.(*simBackend)
				fmt.Fprintf(w, "  backend %-8s base latency %v, bandwidth %.3g (weight %.3f)\n",
					b.Name, sim.base, b.Bandwidth, b.Weight)
			}
			fmt.Fprintf(w, "  hedging %v, idle watermark %g\n", cfg.Hedge, cfg.Watermark)
		}
	}

	var baseline float64
	var baselineShards int
	for _, shards := range cfg.Shards {
		if cfg.Backends >= 2 {
			// Single-backend reference: all traffic on the multi-run's
			// exact primary (simBackends' profiles are n-independent),
			// same hedging/gate knobs — the comparison reads off what
			// the added mirrors buy.
			base, err := runEngineBenchOnce(w, cfg, mmpp, shards, 1, true, text)
			if err != nil {
				return err
			}
			multi, err := runEngineBenchOnce(w, cfg, mmpp, shards, cfg.Backends, false, text)
			if err != nil {
				return err
			}
			if text {
				fmt.Fprintf(w, "  aggregate        %.2fx vs single-backend baseline\n",
					multi.rps/base.rps)
			}
			report.Runs = append(report.Runs, base.rep, multi.rep)
			continue
		}
		res, err := runEngineBenchOnce(w, cfg, mmpp, shards, cfg.Backends, false, text)
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
// cannot honour are rejected. extra options (the fabric knobs) are
// appended last. Returns the effective shard count.
func newBenchEngine(mode string, fetch prefetcher.Fetcher, bandwidth float64, workers, cacheCap, shards int, extra ...prefetcher.Option) (*prefetcher.Engine, int, error) {
	for n := 1; ; n <<= 1 {
		if n >= shards {
			shards = n
			break
		}
	}
	if cacheCap < 2*shards {
		return nil, 0, fmt.Errorf("%s mode: -cache %d cannot give each of %d shards the >= 2 items SLRU needs", mode, cacheCap, shards)
	}
	opts := []prefetcher.Option{
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
	}
	opts = append(opts, extra...)
	eng, err := prefetcher.New(fetch, opts...)
	if err != nil {
		return nil, 0, err
	}
	return eng, shards, nil
}

// fabricOptions builds the engine options for the multi-backend mode.
func fabricOptions(cfg engineBenchConfig, backends int) []prefetcher.Option {
	opts := []prefetcher.Option{
		prefetcher.WithBackends(simBackends(backends, cfg.Bandwidth, nil)...),
		prefetcher.WithRouting(fetch.RouteLatency),
	}
	if cfg.Hedge {
		opts = append(opts, prefetcher.WithHedging(fetch.Hedging{}))
	}
	if cfg.Watermark > 0 {
		opts = append(opts, prefetcher.WithIdleWatermark(cfg.Watermark))
	}
	return opts
}

// runEngineBenchOnce measures one engine configuration: shards is the
// requested shard count (rounded up to a power of two), backends the
// simulated backend count (0 = one in-process origin). A non-nil mmpp paces
// each client's arrivals on its own Markov-modulated Poisson clock.
func runEngineBenchOnce(w io.Writer, cfg engineBenchConfig, mmpp *workload.MMPPConfig, shards, backends int, isBaseline, text bool) (engineRun, error) {
	var (
		eng *prefetcher.Engine
		err error
	)
	if backends > 0 {
		eng, shards, err = newBenchEngine("engine", nil, cfg.Bandwidth, cfg.Workers,
			cfg.CacheCap, shards, fabricOptions(cfg, backends)...)
	} else {
		direct := prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
			return prefetcher.Item{ID: id, Size: 1}, nil
		})
		eng, shards, err = newBenchEngine("engine", direct, cfg.Bandwidth, cfg.Workers,
			cfg.CacheCap, shards)
	}
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
			pace := newPacer(mmpp, cfg.Seed, c, start)
			n := 0
			var clientErr error
			for i := 0; i < cfg.Requests; i++ {
				if pace != nil {
					pace.wait()
				}
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
		label := fmt.Sprintf("shards=%d", st.Shards)
		if backends > 0 {
			label += fmt.Sprintf(" backends=%d", backends)
			if isBaseline {
				label += " (baseline)"
			}
		}
		fmt.Fprintln(w, label)
		reportRun(w, st, rps, elapsed, perf)
	}
	return engineRun{rps: rps, shards: shards, rep: newRunReport(st, completed, rps, elapsed, isBaseline, perf)}, nil
}

// reportRun prints the per-run block shared by the -engine and -trace
// modes: throughput, the online estimates, the prefetch accounting,
// whether the predictor ran lock-free — a regression in that line (a
// built-in predictor falling back to the mutex) is a scaling bug even
// when a single-threaded run looks healthy — and, in fabric mode, one
// line per backend with its link estimates (distinct ρ̂′ per link is
// the tentpole observable) and hedging/gate outcomes.
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
	fmt.Fprintf(w, "  prefetches       issued=%d used=%d wasted=%d dropped=%d deferred=%d errors=%d (accuracy %.3f)\n",
		st.PrefetchIssued, st.PrefetchUsed, st.PrefetchWasted,
		st.PrefetchDropped, st.PrefetchDeferred, st.PrefetchErrors, st.Accuracy())
	fmt.Fprintf(w, "  joins            %d demand requests coalesced onto in-flight prefetches\n", st.Joins)
	if st.MultiGets > 0 {
		fmt.Fprintf(w, "  batched demand   %d GetMulti sessions, %d keys demand-batched\n",
			st.MultiGets, st.BatchedKeys)
	}
	for _, b := range st.Backends {
		breaker := ""
		if b.BreakerState != "" {
			breaker = fmt.Sprintf(" breaker=%s/%d", b.BreakerState, b.BreakerOpens)
		}
		fmt.Fprintf(w, "  backend %-8s ρ̂=%.3f ρ̂′=%.3f b̂=%.3g lat=%.2fms p95=%.2fms demand=%d spec=%d err=%d batch=%d/%d hedges=%d/%d retries=%d deferred=%d released=%d%s\n",
			b.Name, b.Rho, b.RhoPrime, b.Bandwidth,
			b.LatencySeconds*1e3, b.LatencyP95Seconds*1e3,
			b.Demand, b.Speculative, b.Errors,
			b.BatchCalls, b.BatchedItems,
			b.HedgesWon, b.HedgesLaunched, b.Retries,
			b.Deferred, b.Released, breaker)
	}
}
