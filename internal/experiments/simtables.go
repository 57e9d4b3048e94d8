package experiments

import (
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/des"
	"repro/internal/predict"
	"repro/internal/prefetch"
	"repro/internal/queue"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "T2",
		Title: "Abstract simulation vs closed forms: eqs. 5, 7, 8, 10, 11, 27 (model A)",
		Run:   runTableValidation,
	})
	register(Experiment{
		ID:    "T3",
		Title: "Section-4 h′ estimator accuracy while prefetching (full system)",
		Run:   runTableEstimator,
	})
	register(Experiment{
		ID:    "T7",
		Title: "End-to-end policy comparison on a Markov workload (full system)",
		Run:   runTablePolicies,
	})
	register(Experiment{
		ID:    "T8",
		Title: "PS server validation: r̄ = x̄/(1−ρ) and insensitivity (exp vs Pareto sizes)",
		Run:   runTablePS,
	})
}

func runTableValidation(o Options) ([]*stats.Table, error) {
	tb := stats.NewTable("T2: abstract simulation vs paper equations (λ=30, b=50, s̄=1, model A)",
		"h′", "n̄(F)", "p",
		"h sim", "h eq7", "ρ sim", "ρ eq8",
		"t̄ sim", "t̄ eq10", "rel",
		"G sim", "G eq11", "C sim", "C eq27")
	cases := []struct{ hPrime, nF, p float64 }{
		{0, 0, 0}, // baseline row: eq. 5
		{0, 0.5, 0.9},
		{0, 1.0, 0.9},
		{0, 0.5, 0.7},
		{0.3, 0, 0},
		{0.3, 0.5, 0.6},
		{0.3, 1.0, 0.5},
		{0.3, 1.0, 0.7},
	}
	requests := o.requests(200000)
	warm := requests / 5
	baselines := map[float64]sim.AbstractResult{}
	for _, c := range cases {
		cfg := sim.AbstractConfig{
			Lambda: 30, Bandwidth: 50, MeanSize: 1,
			HPrime: c.hPrime, NF: c.nF, P: c.p,
			Requests: requests, Warmup: warm, Seed: o.seed(),
		}
		res, err := sim.RunAbstract(cfg)
		if err != nil {
			return nil, fmt.Errorf("T2 case %+v: %w", c, err)
		}
		if c.nF == 0 {
			baselines[c.hPrime] = res
		}
		par := analytic.Params{Lambda: 30, B: 50, SBar: 1, HPrime: c.hPrime}
		var want analytic.Eval
		if c.nF == 0 {
			tPrime, err := par.AccessTimeNoPrefetch()
			if err != nil {
				return nil, err
			}
			want = analytic.Eval{H: c.hPrime, Rho: par.RhoPrime(), TBar: tPrime}
		} else {
			want, err = analytic.Evaluate(analytic.ModelA{}, par, c.nF, c.p)
			if err != nil {
				return nil, err
			}
		}
		base := baselines[c.hPrime]
		gSim := base.AccessTime - res.AccessTime
		cSim := res.RetrievalPerRequest - base.RetrievalPerRequest
		tb.AddRowValues(c.hPrime, c.nF, c.p,
			res.HitRatio, want.H, res.Utilisation, want.Rho,
			res.AccessTime, want.TBar, stats.RelErr(res.AccessTime, want.TBar),
			gSim, want.G, cSim, want.C)
	}
	tb.AddNote("every simulated quantity matches its closed form; G and C rows compare against the h′-matched baseline run")
	return []*stats.Table{tb}, nil
}

// estimatorSystem is the shared full-system configuration for T3/T7.
func estimatorSystem(o Options, pol prefetch.Policy, inter sim.Interaction, lambda float64) sim.SystemConfig {
	return sim.SystemConfig{
		Users:     4,
		Lambda:    lambda,
		Bandwidth: 50,
		Catalog:   workload.NewUniformCatalog(500, 1),
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
		Requests:      o.requests(80000),
		Warmup:        o.requests(80000) / 4,
		Seed:          o.seed(),
	}
}

func runTableEstimator(o Options) ([]*stats.Table, error) {
	tb := stats.NewTable("T3: ĥ′ estimated while prefetching vs true no-prefetch h′",
		"interaction", "policy", "true h′ (baseline run)", "ĥ′ (Section 4)", "abs err",
		"h with prefetch", "n̄(F)")
	for _, inter := range []sim.Interaction{sim.InteractionA, sim.InteractionB} {
		base, err := sim.RunSystem(estimatorSystem(o, nil, inter, 30))
		if err != nil {
			return nil, err
		}
		pf, err := sim.RunSystem(estimatorSystem(o,
			prefetch.Threshold{Model: analytic.ModelA{}}, inter, 30))
		if err != nil {
			return nil, err
		}
		// Each interaction reads its own Section-4 form: the plain tagged
		// count under A, corrected by n̄(C)/(n̄(C)−n̄(F)) under B.
		est := pf.HPrimeEstimate
		if inter == sim.InteractionB {
			est = pf.HPrimeEstimateB
		}
		tb.AddRowValues(inter.String(), "paper-threshold",
			base.HitRatio, est, math.Abs(est-base.HitRatio), pf.HitRatio, pf.NFObserved)
	}
	tb.AddNote("under A the estimator recovers the hypothetical no-prefetch hit ratio while prefetching runs; under B the Section-4 correction, with n̄(F) taken as prefetches per request, closes only part of the gap; prefetching itself raises the realised h above h′")
	return []*stats.Table{tb}, nil
}

func runTablePolicies(o Options) ([]*stats.Table, error) {
	var out []*stats.Table
	for _, lambda := range []float64{30, 42} {
		tb := stats.NewTable(
			fmt.Sprintf("T7: policy comparison, λ=%g, b=50 (Markov workload, Markov-1 predictor, model A)", lambda),
			"policy", "h", "t̄", "G vs none", "R/req", "C vs none", "ρ", "n̄(F)", "accuracy")
		base, err := sim.RunSystem(estimatorSystem(o, nil, sim.InteractionA, lambda))
		if err != nil {
			return nil, err
		}
		policies := []prefetch.Policy{
			prefetch.None{},
			prefetch.Threshold{Model: analytic.ModelA{}},
			prefetch.Threshold{Model: analytic.ModelB{}},
			prefetch.Greedy{Model: analytic.ModelA{}},
			prefetch.Static{Theta: 0.05},
			prefetch.Static{Theta: 0.5},
			prefetch.TopK{K: 2},
		}
		for _, pol := range policies {
			res, err := sim.RunSystem(estimatorSystem(o, pol, sim.InteractionA, lambda))
			if err != nil {
				return nil, err
			}
			tb.AddRowValues(pol.Name(),
				res.HitRatio, res.AccessTime,
				base.AccessTime-res.AccessTime,
				res.RetrievalPerRequest,
				res.RetrievalPerRequest-base.RetrievalPerRequest,
				res.Utilisation, res.NFObserved, res.Accuracy())
		}
		tb.AddNote("the paper's load-adaptive threshold sustains its gain as λ rises, while load-blind policies (low static θ, top-k) pay growing excess cost")
		out = append(out, tb)
	}
	return out, nil
}

func runTablePS(o Options) ([]*stats.Table, error) {
	tb := stats.NewTable("T8: M/G/1-PS server validation (capacity 1, mean size 1)",
		"ρ", "r̄ analytic", "r̄ sim (exp)", "r̄ sim (Pareto α=2.2)",
		"rel(exp)", "rel(Pareto)", "r̄ FCFS sim (Pareto)")
	jobs := o.requests(60000)
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		want, err := queue.PSMeanResponse(1, rho)
		if err != nil {
			return nil, err
		}
		exp := runPS(o.seed(), rho, rng.Exponential{Rate: 1}, jobs, false)
		par := runPS(o.seed()+1, rho, rng.NewParetoMean(1, 2.2), jobs, false)
		fcfs := runPS(o.seed()+2, rho, rng.NewParetoMean(1, 2.2), jobs, true)
		tb.AddRowValues(rho, want, exp, par,
			stats.RelErr(exp, want), stats.RelErr(par, want), fcfs)
	}
	tb.AddNote("PS response time is insensitive to the size distribution (both columns match x̄/(1−ρ)); FCFS under heavy-tailed sizes is far worse — why the shared link is modelled as PS")
	return []*stats.Table{tb}, nil
}

// runPS drives one M/G/1 queue at utilisation rho and returns the mean
// response time.
func runPS(seed uint64, rho float64, size rng.Dist, jobs int, fcfs bool) float64 {
	s := des.New()
	arrivals := rng.NewStream(seed, "arrivals")
	sizes := rng.NewStream(seed, "sizes")
	inter := rng.Exponential{Rate: rho} // capacity 1, mean size 1
	submitted := 0
	var submit func(j *queue.Job)
	var mean func() float64
	if fcfs {
		srv := queue.NewFCFSServer(s, 1)
		submit = srv.Submit
		mean = func() float64 { return srv.Response.Mean() }
	} else {
		srv := queue.NewPSServer(s, 1)
		submit = srv.Submit
		mean = func() float64 { return srv.Response.Mean() }
	}
	var arrive func()
	arrive = func() {
		if submitted >= jobs {
			return
		}
		submitted++
		submit(&queue.Job{Size: size.Sample(sizes)})
		s.After(inter.Sample(arrivals), arrive)
	}
	s.After(inter.Sample(arrivals), arrive)
	s.Run()
	return mean()
}
