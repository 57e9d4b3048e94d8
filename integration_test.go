package repro_test

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/predict"
	"repro/internal/prefetch"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/prefetcher"
)

// TestPipelineTraceToSimulation exercises the full tooling path a user
// would follow: generate a synthetic trace, write it to the wire
// format, read it back, replay it through the full-system simulator
// under two policies, and confirm the paper's qualitative conclusion on
// the replayed workload.
func TestPipelineTraceToSimulation(t *testing.T) {
	// 1. Generate and serialise a trace with *per-user* Markov chains:
	// each client follows its own session structure (assigning one
	// chain round-robin across users would destroy exactly the
	// sequential locality a per-client predictor learns from).
	const n = 40000
	const users = 4
	catalog := workload.NewUniformCatalog(400, 1)
	sources := make([]workload.Source, users)
	for u := range sources {
		sources[u] = workload.NewMarkov(workload.MarkovConfig{
			N: 400, Fanout: 2, Decay: 0.15, Restart: 0.03,
		}, rng.NewStream(555, "gen-"+string(rune('a'+u))))
	}
	arr := workload.NewArrivals(30, rng.NewStream(555, "arr"))
	var buf bytes.Buffer
	tw := workload.NewTraceWriter(&buf)
	for i := 0; i < n; i++ {
		u := i % users
		id := sources[u].Next()
		if err := tw.Write(workload.Record{
			Time: arr.Next(), User: u, Item: id, Size: catalog.Size(id),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	// 2. Read it back through the public reader.
	records, err := workload.NewTraceReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != n {
		t.Fatalf("round-tripped %d records, want %d", len(records), n)
	}

	// 3. Replay through the simulator, no-prefetch vs paper threshold.
	run := func(pol prefetch.Policy) sim.SystemResult {
		res, err := sim.RunSystem(sim.SystemConfig{
			Users: 4, Lambda: 30, Bandwidth: 50,
			Catalog:       catalog,
			Trace:         records,
			NewPredictor:  func() predict.Predictor { return predict.NewMarkov1() },
			Policy:        pol,
			CacheCapacity: 80,
			MaxPrefetch:   2,
			Requests:      n,
			Warmup:        n / 4,
			Seed:          556,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	paper := run(prefetch.Threshold{Model: analytic.ModelA{}})

	// 4. The paper's conclusion must hold on the replayed trace.
	if paper.HitRatio <= base.HitRatio {
		t.Errorf("prefetching did not raise the hit ratio: %v vs %v",
			paper.HitRatio, base.HitRatio)
	}
	if g := base.AccessTime - paper.AccessTime; g <= 0 {
		t.Errorf("measured G = %v on replayed trace, want > 0", g)
	}
}

// TestEngineThresholdAgreesWithPlanner drives a live engine with a
// stationary synthetic stream and checks that its converged threshold
// matches the offline Planner's for the same (known) parameters, under
// each interaction model; then the request rate halves and the
// threshold must follow the planner to the new operating point. It
// checks the engine's global controller — Engine.Threshold, from the
// engine-wide λ̂, ŝ̄ and ĥ′. Admission runs against each backend link's
// own ρ̂′ instead, which this test does not look at.
func TestEngineThresholdAgreesWithPlanner(t *testing.T) {
	const (
		bandwidth = 50.0
		hTrue     = 0.4
		nc        = 2.0 // pinned n̄(C): B sits 0.2 above A
	)
	for _, tc := range []struct {
		name  string
		model prefetcher.Model
	}{
		{"model A", prefetcher.ModelA()},
		{"model B", prefetcher.ModelB()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := prefetcher.NewManualClock(time.Unix(0, 0))
			eng, err := prefetcher.New(
				prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
					return prefetcher.Item{ID: id, Size: 1}, nil
				}),
				prefetcher.WithClock(clock),
				prefetcher.WithBandwidth(bandwidth),
				prefetcher.WithPolicy(prefetcher.AdaptiveThreshold(tc.model)),
				prefetcher.WithCacheOccupancy(nc),
				prefetcher.WithCache(prefetcher.NewLRUCache(1<<15)),
				// Nothing is ever predicted, so nothing is prefetched
				// and ĥ′ is the stream's real hit ratio.
				prefetcher.WithPredictor(silentPredictor{}),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			srcHit := rng.NewStream(77, "hits")
			srcArr := rng.NewStream(77, "arr")
			ctx := context.Background()
			nextID := prefetcher.ID(0)
			for _, phase := range []struct {
				lambda   float64
				requests int
			}{{30, 15000}, {15, 3000}} {
				// Poisson arrivals of size-1 items: with probability
				// hTrue a request re-reads a resident id, otherwise it
				// fetches a fresh one.
				inter := rng.Exponential{Rate: phase.lambda}
				for i := 0; i < phase.requests; i++ {
					clock.AdvanceSeconds(inter.Sample(srcArr))
					id := nextID
					if nextID > 10 && rng.Bernoulli(srcHit, hTrue) {
						id = prefetcher.ID(srcHit.Intn(int(nextID)))
					} else {
						nextID++
					}
					if _, err := eng.Get(ctx, id); err != nil {
						t.Fatal(err)
					}
				}
				if st := eng.Stats(); st.Misses != int64(nextID) {
					t.Fatalf("%d misses for %d distinct ids: a re-read was not a hit", st.Misses, nextID)
				}
				planner, err := prefetcher.NewPlanner(tc.model, prefetcher.PlanParams{
					Lambda: phase.lambda, Bandwidth: bandwidth, MeanSize: 1, HPrime: hTrue, NC: nc,
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := planner.Threshold()
				if err != nil {
					t.Fatal(err)
				}
				if got := eng.Threshold(); math.Abs(got-want) > 0.05 {
					t.Errorf("λ = %v: engine threshold %v, planner %v", phase.lambda, got, want)
				}
			}
		})
	}
}

// silentPredictor learns nothing and predicts nothing.
type silentPredictor struct{}

func (silentPredictor) Observe(prefetcher.ID)            {}
func (silentPredictor) Predict() []prefetcher.Prediction { return nil }
func (silentPredictor) Name() string                     { return "silent" }

// TestModelBEstimatorCorrection validates the paper's Section-4 model-B
// correction factor n̄(C)/(n̄(C)−n̄(F)) end to end: under model-B
// (random-victim) eviction the raw estimate undershoots and the
// corrected one lands closer to the true h′.
func TestModelBEstimatorCorrection(t *testing.T) {
	mk := func(pol prefetch.Policy, inter sim.Interaction) sim.SystemResult {
		res, err := sim.RunSystem(sim.SystemConfig{
			Users: 4, Lambda: 30, Bandwidth: 50,
			Catalog: workload.NewUniformCatalog(500, 1),
			NewSource: func(u int, src *rng.Source) workload.Source {
				return workload.NewMarkov(workload.MarkovConfig{
					N: 500, Fanout: 2, Decay: 0.15, Restart: 0.03,
				}, src)
			},
			NewPredictor:  func() predict.Predictor { return predict.NewMarkov1() },
			Policy:        pol,
			Interaction:   inter,
			CacheCapacity: 80,
			MaxPrefetch:   2,
			Requests:      60000,
			Warmup:        15000,
			Seed:          888,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(nil, sim.InteractionB)
	pf := mk(prefetch.Threshold{Model: analytic.ModelA{}}, sim.InteractionB)

	raw := pf.HPrimeEstimate
	nC := pf.MeanOccupancy
	nF := pf.NFObserved
	corrected := raw * nC / (nC - nF)
	trueH := base.HitRatio

	rawErr := math.Abs(raw - trueH)
	corrErr := math.Abs(corrected - trueH)
	if corrErr >= rawErr {
		t.Errorf("model-B correction did not help: raw %v (err %v) vs corrected %v (err %v), true %v",
			raw, rawErr, corrected, corrErr, trueH)
	}
}

// TestStatsTablesRenderAllFormats smoke-checks every renderer against a
// table with awkward content.
func TestStatsTablesRenderAllFormats(t *testing.T) {
	tb := stats.NewTable("integration", "name", "value")
	tb.AddRow("comma,quote\"", "1.5")
	tb.AddNote("note with %d formats", 3)
	for _, render := range []func() string{tb.Text, tb.CSV, tb.Markdown} {
		if out := render(); len(out) == 0 {
			t.Error("renderer produced empty output")
		}
	}
}

// TestSeedStability pins the headline simulation outputs for a fixed
// seed, guarding against silent behavioural drift anywhere in the
// stack (rng, des, queue, cache, sim). Update deliberately if the
// simulation semantics change.
func TestSeedStability(t *testing.T) {
	res, err := sim.RunAbstract(sim.AbstractConfig{
		Lambda: 30, Bandwidth: 50, MeanSize: 1, HPrime: 0.3,
		NF: 0.5, P: 0.6,
		Requests: 20000, Warmup: 4000, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 16000 {
		t.Errorf("measured requests = %d, want 16000", res.Requests)
	}
	// Loose envelope (±10% of the analytic values) rather than golden
	// floats: stable across compilers, sensitive to logic drift.
	par := analytic.Params{Lambda: 30, B: 50, SBar: 1, HPrime: 0.3}
	want, err := analytic.Evaluate(analytic.ModelA{}, par, 0.5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(res.AccessTime, want.TBar) > 0.10 {
		t.Errorf("t̄ = %v drifted from analytic %v", res.AccessTime, want.TBar)
	}
	if math.Abs(res.HitRatio-want.H) > 0.02 {
		t.Errorf("h = %v drifted from analytic %v", res.HitRatio, want.H)
	}
}
