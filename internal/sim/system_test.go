package sim

import (
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/predict"
	"repro/internal/prefetch"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// markovSystem is the standard full-system configuration for tests: a
// predictable Markov workload so the predictors have real signal.
func markovSystem(pol prefetch.Policy) SystemConfig {
	return SystemConfig{
		Users:     4,
		Lambda:    30,
		Bandwidth: 50,
		Catalog:   workload.NewUniformCatalog(500, 1),
		NewSource: func(u int, src *rng.Source) workload.Source {
			return workload.NewMarkov(workload.MarkovConfig{
				N: 500, Fanout: 2, Decay: 0.15, Restart: 0.03,
			}, src)
		},
		NewPredictor:  func() predict.Predictor { return predict.NewMarkov1() },
		Policy:        pol,
		CacheCapacity: 80,
		MaxPrefetch:   2,
		Requests:      60000,
		Warmup:        15000,
		Seed:          77,
	}
}

func TestSystemValidation(t *testing.T) {
	good := markovSystem(nil)
	bad := []func(*SystemConfig){
		func(c *SystemConfig) { c.Users = 0 },
		func(c *SystemConfig) { c.Lambda = 0 },
		func(c *SystemConfig) { c.Bandwidth = 0 },
		func(c *SystemConfig) { c.Catalog = nil },
		func(c *SystemConfig) { c.NewSource = nil },
		func(c *SystemConfig) { c.CacheCapacity = 0 },
		func(c *SystemConfig) { c.Requests = 0 },
		func(c *SystemConfig) { c.Warmup = c.Requests },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := RunSystem(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSystemDeterministic(t *testing.T) {
	cfg := markovSystem(prefetch.Threshold{Model: analytic.ModelA{}})
	cfg.Requests, cfg.Warmup = 8000, 2000
	a, err := RunSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSystemNoPrefetchBaseline(t *testing.T) {
	res, err := RunSystem(markovSystem(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio <= 0.1 || res.HitRatio >= 1 {
		t.Errorf("baseline hit ratio %v implausible", res.HitRatio)
	}
	if res.AccessTime <= 0 {
		t.Errorf("baseline access time %v should be positive", res.AccessTime)
	}
	if res.PrefetchIssued != 0 || res.NFObserved != 0 {
		t.Error("no-prefetch run issued prefetches")
	}
	// Utilisation should be close to (1−h)λs̄/b.
	want := (1 - res.HitRatio) * 30 * 1 / 50
	if stats.RelErr(res.Utilisation, want) > 0.1 {
		t.Errorf("utilisation %v vs expected %v", res.Utilisation, want)
	}
	// The h′ estimator with no prefetching must agree with the measured
	// hit ratio (all entries are tagged).
	if math.Abs(res.HPrimeEstimate-res.HitRatio) > 0.02 {
		t.Errorf("ĥ′ = %v vs measured h = %v", res.HPrimeEstimate, res.HitRatio)
	}
}

// The paper's policy must beat no-prefetch on a predictable workload at
// moderate load: positive measured G and higher hit ratio.
func TestSystemThresholdPolicyImproves(t *testing.T) {
	base, err := RunSystem(markovSystem(nil))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := RunSystem(markovSystem(prefetch.Threshold{Model: analytic.ModelA{}}))
	if err != nil {
		t.Fatal(err)
	}
	if pf.PrefetchIssued == 0 {
		t.Fatal("threshold policy issued no prefetches")
	}
	if pf.HitRatio <= base.HitRatio {
		t.Errorf("hit ratio did not improve: %v vs %v", pf.HitRatio, base.HitRatio)
	}
	g := base.AccessTime - pf.AccessTime
	if g <= 0 {
		t.Errorf("measured G = %v, want > 0 (base t̄=%v, prefetch t̄=%v)",
			g, base.AccessTime, pf.AccessTime)
	}
	if pf.Accuracy() <= 0.3 {
		t.Errorf("prefetch accuracy %v suspiciously low", pf.Accuracy())
	}
}

// The estimator's job: ĥ′ measured *while prefetching* must recover the
// no-prefetch run's share of requests that put no demand on the link,
// (hits + waits on an in-flight fetch)/requests — which is that run's
// own ĥ′, every request counted once — under interaction model A, under
// the paper's policy and under top2, whose prefetches are claimed in
// flight far more often. The no-prefetch hit ratio is logged beside it.
func TestSystemEstimatorRecoversHPrime(t *testing.T) {
	base, err := RunSystem(markovSystem(nil))
	if err != nil {
		t.Fatal(err)
	}
	truth := base.HPrimeEstimate
	for _, pol := range []prefetch.Policy{prefetch.Threshold{Model: analytic.ModelA{}}, prefetch.TopK{K: 2}} {
		pf, err := RunSystem(markovSystem(pol))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: ĥ′ = %.4f, no-prefetch (hits + waits)/requests %.4f, abs err %.4f; no-prefetch hit ratio %.4f",
			pol.Name(), pf.HPrimeEstimate, truth, math.Abs(pf.HPrimeEstimate-truth), base.HitRatio)
		if math.Abs(pf.HPrimeEstimate-truth) > 0.01 {
			t.Errorf("%s: ĥ′ while prefetching = %v, no-prefetch (hits + waits)/requests = %v",
				pol.Name(), pf.HPrimeEstimate, truth)
		}
	}
}

// Interaction model B (random victims) must not beat model A
// (zero-value victims) in hit ratio, mirroring eq. 13 vs eq. 21.
func TestSystemInteractionAOverB(t *testing.T) {
	cfgA := markovSystem(prefetch.Threshold{Model: analytic.ModelA{}})
	cfgA.CacheCapacity = 60 // tighten so eviction pressure matters
	cfgB := cfgA
	cfgB.Interaction = InteractionB
	a, err := RunSystem(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSystem(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if b.HitRatio > a.HitRatio+0.01 {
		t.Errorf("model B hit ratio %v should not beat model A %v",
			b.HitRatio, a.HitRatio)
	}
}

// An aggressive load-blind policy at high load should do worse than the
// paper's load-aware threshold — the network-load effect the paper is
// about.
func TestSystemLoadAwareBeatsAggressiveUnderLoad(t *testing.T) {
	mk := func(pol prefetch.Policy) SystemConfig {
		cfg := markovSystem(pol)
		cfg.Lambda = 42 // raises ρ′ so indiscriminate prefetching saturates
		return cfg
	}
	paper, err := RunSystem(mk(prefetch.Threshold{Model: analytic.ModelA{}}))
	if err != nil {
		t.Fatal(err)
	}
	aggressive, err := RunSystem(mk(prefetch.TopK{K: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if aggressive.AccessTime <= paper.AccessTime {
		t.Errorf("top-4 under load (t̄=%v) should be worse than paper policy (t̄=%v)",
			aggressive.AccessTime, paper.AccessTime)
	}
	if aggressive.Utilisation <= paper.Utilisation {
		t.Errorf("top-4 should load the server more: %v vs %v",
			aggressive.Utilisation, paper.Utilisation)
	}
}

func TestSystemInteractionString(t *testing.T) {
	if InteractionA.String() != "A" || InteractionB.String() != "B" {
		t.Error("interaction names wrong")
	}
	if Interaction(9).String() == "" {
		t.Error("unknown interaction should still render")
	}
}

func TestSystemMaxPrefetchCap(t *testing.T) {
	cfg := markovSystem(prefetch.TopK{K: 10})
	cfg.MaxPrefetch = 1
	cfg.Requests, cfg.Warmup = 20000, 5000
	res, err := RunSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NFObserved > 1.0+1e-9 {
		t.Errorf("n̄(F) = %v exceeds MaxPrefetch=1", res.NFObserved)
	}
}

// genTrace records a Markov workload trace for the replay tests.
func genTrace(t *testing.T, n int, lambda float64) []workload.Record {
	t.Helper()
	src := workload.NewMarkov(workload.MarkovConfig{
		N: 500, Fanout: 2, Decay: 0.15, Restart: 0.03,
	}, rng.NewStream(123, "trace"))
	arr := workload.NewArrivals(lambda, rng.NewStream(123, "arrivals"))
	recs := make([]workload.Record, n)
	for i := range recs {
		id := src.Next()
		recs[i] = workload.Record{Time: arr.Next(), User: i % 4, Item: id, Size: 1}
	}
	return recs
}

func TestSystemTraceReplay(t *testing.T) {
	trace := genTrace(t, 30000, 30)
	cfg := markovSystem(prefetch.Threshold{Model: analytic.ModelA{}})
	cfg.NewSource = nil
	cfg.Trace = trace
	cfg.Requests = len(trace)
	cfg.Warmup = len(trace) / 4
	res, err := RunSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(len(trace)-cfg.Warmup) {
		t.Errorf("measured %d requests, want %d", res.Requests, len(trace)-cfg.Warmup)
	}
	if res.HitRatio <= 0.1 || res.AccessTime <= 0 {
		t.Errorf("trace replay metrics implausible: %+v", res)
	}
	// The controller's λ̂ should recover the trace's recorded rate.
	// (exposed via ρ̂′ = (1−ĥ′)·λ̂·ŝ̄/b; with s̄=1, b=50 invert.)
	lambdaHat := res.RhoPrimeEstimate * 50 / (1 - res.HPrimeEstimate)
	if math.Abs(lambdaHat-30)/30 > 0.25 {
		t.Errorf("replayed λ̂ ≈ %v, want ~30", lambdaHat)
	}
}

func TestSystemTraceReplayDeterministic(t *testing.T) {
	trace := genTrace(t, 5000, 30)
	mk := func() SystemConfig {
		cfg := markovSystem(prefetch.Threshold{Model: analytic.ModelA{}})
		cfg.NewSource = nil
		cfg.Trace = trace
		cfg.Requests = len(trace)
		cfg.Warmup = 1000
		return cfg
	}
	a, err := RunSystem(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSystem(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("trace replay nondeterministic:\n%+v\n%+v", a, b)
	}
}

// TimeScale re-runs the same reference stream at a different load: the
// stretched (slower) replay must see a lower utilisation and shorter
// access times than the compressed (faster) one.
func TestSystemTraceTimeScale(t *testing.T) {
	trace := genTrace(t, 30000, 30)
	run := func(scale float64) SystemResult {
		cfg := markovSystem(nil)
		cfg.NewSource = nil
		cfg.Trace = trace
		cfg.Requests = len(trace)
		cfg.Warmup = len(trace) / 4
		cfg.TimeScale = scale
		res, err := RunSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slow := run(2.0)  // effective λ ≈ 15
	fast := run(0.75) // effective λ ≈ 40
	if slow.Utilisation >= fast.Utilisation {
		t.Errorf("stretched replay should be lighter: %v vs %v",
			slow.Utilisation, fast.Utilisation)
	}
	if slow.AccessTime >= fast.AccessTime {
		t.Errorf("stretched replay should be faster: %v vs %v",
			slow.AccessTime, fast.AccessTime)
	}
	// Reference behaviour (hit ratio) is scale-invariant: same stream,
	// same caches.
	if math.Abs(slow.HitRatio-fast.HitRatio) > 0.02 {
		t.Errorf("hit ratio should not depend on time scale: %v vs %v",
			slow.HitRatio, fast.HitRatio)
	}
}

func TestSystemTraceValidation(t *testing.T) {
	cfg := markovSystem(nil)
	cfg.NewSource = nil
	if _, err := RunSystem(cfg); err == nil {
		t.Error("neither source nor trace should be rejected")
	}
	cfg.Trace = genTrace(t, 100, 30)
	cfg.TimeScale = -1
	if _, err := RunSystem(cfg); err == nil {
		t.Error("negative time scale should be rejected")
	}
}

func TestSystemOccupancyBounded(t *testing.T) {
	cfg := markovSystem(prefetch.Threshold{Model: analytic.ModelA{}})
	cfg.Requests, cfg.Warmup = 20000, 5000
	res, err := RunSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanOccupancy > float64(cfg.CacheCapacity)+1e-9 {
		t.Errorf("mean occupancy %v exceeds capacity %d",
			res.MeanOccupancy, cfg.CacheCapacity)
	}
	if res.MeanOccupancy <= 0 {
		t.Error("occupancy should be positive after warmup")
	}
}
