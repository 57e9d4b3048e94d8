//go:build goexperiment.synctest

package vlink

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/queue"
	"repro/internal/rng"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
	"repro/prefetcher/fetch"
)

// uniform draws ids from 2⁴⁰, so no id repeats and h = 0.
func uniform(src *rng.Source) func() fetch.ID {
	return func() fetch.ID { return fetch.ID(src.Uint64() >> 24) }
}

// TestVirtualLinkMatchesPS validates the harness against the closed form
// it stands in for. Under NoPrefetch on Poisson arrivals, t̄ is
// processor sharing's r̄ = (1−h′)·s̄/(b(1−ρ′)) within 5 % at ρ′ 0.2, 0.5
// and 0.8, and the controller's ρ̂′ reads the link's measured demand
// utilisation within 10 %. On a trace with hits, at the same loads, the
// Section-4 ĥ′ is the share of requests that put no demand on the link,
// (Hits + Joins)/Requests, within 0.01, and the controller's ρ̂′, which
// divides by 1 − ĥ′, reads the measured demand utilisation within 10 %.
func TestVirtualLinkMatchesPS(t *testing.T) {
	const b = 100
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		res := run{policy: prefetcher.NoPrefetch(), lambda: rho * b, b: b, n: 40000, warm: 4000, seed: 1, ids: uniform}.measure(t)
		want, err := queue.PSMeanResponse(1.0/b, res.DemandUtilisation)
		if err != nil {
			t.Fatal(err)
		}
		want *= 1 - res.HitRatio
		t.Logf("ρ′ %.1f: t̄ %.5f ± %.5f s, r̄ %.5f s, t̄/r̄ %.4f; link ρ′ %.4f, controller ρ̂′ %.4f, link ρ̂′ %.4f",
			rho, res.AccessTime, res.AccessTimeCI, want, res.AccessTime/want, res.DemandUtilisation, res.RhoPrimeEstimate, res.LinkRhoPrime)
		if r := res.AccessTime / want; math.Abs(r-1) > 0.05 {
			t.Errorf("ρ′ %.1f: t̄/r̄ = %.4f, want within 5 %% of 1", rho, r)
		}
		checkRhoPrime(t, rho, res)
		if res.Utilisation != res.DemandUtilisation {
			t.Errorf("ρ′ %.1f: utilisation %.4f, demand %.4f: want no speculative traffic", rho, res.Utilisation, res.DemandUtilisation)
		}
	}
	// The chain's ĥ′ is also logged against a shadow run of the same id
	// trace at λ = 0.1, where no two Gets overlap. Under load it reads
	// above the shadow's hit ratio: an item in flight is held beside the
	// cache's 20 entries, and at ρ′ 0.8 about 3.6 are.
	chainRun := run{policy: prefetcher.NoPrefetch(), lambda: 0.1, b: b, n: 20000, warm: 2000, seed: 1, ids: chain}
	shadow := chainRun.measure(t).Final.HitRatio()
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		chainRun.lambda = rho * b / (1 - shadow)
		live := chainRun.measure(t)
		st := live.Final
		free := float64(st.Hits+st.Joins) / float64(st.Requests)
		t.Logf("chain at ρ′ %.3f: ĥ′ %.4f, (hits + joins)/requests %.4f, joins %.4f, controller ρ̂′ %.4f; shadow run's hit ratio %.4f, ĥ′ %+.4f from it",
			live.DemandUtilisation, live.HPrimeEstimate, free, float64(st.Joins)/float64(st.Requests), live.RhoPrimeEstimate, shadow, live.HPrimeEstimate-shadow)
		if d := math.Abs(live.HPrimeEstimate - free); d > 0.01 {
			t.Errorf("ρ′ %.1f: ĥ′ %.4f is %.4f from (hits + joins)/requests %.4f, want within 0.01", rho, live.HPrimeEstimate, d, free)
		}
		checkRhoPrime(t, rho, live)
	}
}

// checkRhoPrime holds the controller's ρ̂′ to the link's measured demand
// utilisation within 10 %.
func checkRhoPrime(t *testing.T, rho float64, res result) {
	t.Helper()
	if r := res.RhoPrimeEstimate / res.DemandUtilisation; math.Abs(r-1) > 0.10 {
		t.Errorf("ρ′ %.1f: controller ρ̂′ %.4f against measured %.4f, want within 10 %%", rho, res.RhoPrimeEstimate, res.DemandUtilisation)
	}
}

// chain walks 200 states: from state i it goes to the fixed successor
// (7i+3) mod 200 with probability 0.2, 0.4, 0.6 or 0.8 by i mod 4, and
// otherwise to a state drawn uniformly.
func chain(src *rng.Source) func() fetch.ID {
	const states = 200
	cur := 0
	return func() fetch.ID {
		if src.Float64() < 0.2*float64(cur%4+1) {
			cur = (7*cur + 3) % states
		} else {
			cur = src.Intn(states)
		}
		return fetch.ID(cur)
	}
}

// TestRuleSweep times the rules against each other, against no
// prefetching and against load-blind cutoffs, on the chain at
// no-prefetch utilisations ρ′ ≈ 0.04, 0.25, 0.45 and 0.6 (b = 100, size
// 1, 30,000 requests per cell, the first 10,000 warm-up, seed 1). At
// ρ′ 0.04 the threshold is so low that p̂ alone decides: on raw counts
// adaptive-a admitted the one-off jumps every row collects and lost to
// static 0.1 and topk 1 there.
// prefetchd offers adaptive-a, its default, and none; a rule beside
// them would earn its place only by winning somewhere: its t̄ below
// adaptive-a's by more than the two CI95 half-widths together. Model B's
// threshold (adaptive-b), the static cutoffs and top-k won nowhere, and
// the test fails if one comes to. The table also logs the controller's
// and the link's ρ̂′ (admission reads the link's), and ĥ′ against the
// no-prefetch run's hit ratio on the same trace. At the three upper
// loads it logs one more cell, not gated: adaptive-a on the store
// prefetchd mounts (bytestore.New, 20 entries), its SLRU ½ behind the
// admission filter.
func TestRuleSweep(t *testing.T) {
	const b = 100
	policies := []struct {
		name string
		p    prefetcher.Policy
	}{
		{"none", prefetcher.NoPrefetch()},
		{"static 0.1", prefetcher.StaticThreshold(0.1)},
		{"static 0.3", prefetcher.StaticThreshold(0.3)},
		{"static 0.5", prefetcher.StaticThreshold(0.5)},
		{"static 0.7", prefetcher.StaticThreshold(0.7)},
		{"adaptive-a", prefetcher.AdaptiveThreshold(prefetcher.ModelA())},
		{"adaptive-b", prefetcher.AdaptiveThreshold(prefetcher.ModelB())},
		{"topk 1", prefetcher.TopK(1)},
		{"topk 2", prefetcher.TopK(2)},
	}
	// The rules prefetchd does not offer, each of which must lose.
	retired := []string{"static 0.1", "static 0.3", "static 0.5", "static 0.7", "adaptive-b", "topk 1", "topk 2"}
	cell := func(lambda float64, p prefetcher.Policy) result {
		return run{policy: p, lambda: lambda, b: b, n: 30000, warm: 10000, seed: 1, ids: chain}.measure(t)
	}
	for _, lambda := range []float64{5, 30, 53, 70} {
		res := map[string]result{}
		for _, p := range policies {
			r := cell(lambda, p.p)
			res[p.name] = r
			t.Logf("λ %2.0f %-10s t̄ %6.2f ± %4.2f ms  h %.3f  issued/req %.3f  demand util %.3f  util %.3f  ctrl ρ̂′ %.3f  link ρ̂′ %.3f  ĥ′ − h′ %+.3f",
				lambda, p.name, 1e3*r.AccessTime, 1e3*r.AccessTimeCI, r.HitRatio, r.NFObserved, r.DemandUtilisation, r.Utilisation,
				r.RhoPrimeEstimate, r.LinkRhoPrime, r.HPrimeEstimate-res["none"].HPrimeEstimate)
		}
		a, none := res["adaptive-a"], res["none"]
		t.Logf("λ %2.0f: ρ′ %.3f; adaptive-a against none %+.1f %%", lambda, none.DemandUtilisation, 100*(a.AccessTime/none.AccessTime-1))
		if lambda != 5 {
			// The store prefetchd mounts, with its admission filter:
			// logged beside the SLRU ½ cells, not gated.
			r := run{policy: prefetcher.AdaptiveThreshold(prefetcher.ModelA()), lambda: lambda, b: b, n: 30000, warm: 10000, seed: 1, ids: chain,
				cache: func() prefetcher.Cache {
					s, err := bytestore.New(bytestore.Config{CapacityBytes: 1 << 20, MaxEntries: cacheEntries})
					if err != nil {
						t.Fatal(err)
					}
					return s
				}}.measure(t)
			t.Logf("λ %2.0f %-10s t̄ %6.2f ± %4.2f ms  h %.3f  issued/req %.3f  demand util %.3f  util %.3f  (adaptive-a, the filtered store of %d; against SLRU ½ %+.1f %%)",
				lambda, "tlfu½", 1e3*r.AccessTime, 1e3*r.AccessTimeCI, r.HitRatio, r.NFObserved, r.DemandUtilisation, r.Utilisation,
				cacheEntries, 100*(r.AccessTime/a.AccessTime-1))
		}
		for _, name := range retired {
			if x := res[name]; x.AccessTime < a.AccessTime-(a.AccessTimeCI+x.AccessTimeCI) {
				t.Errorf("λ %.0f: %s t̄ %.2f ms wins over adaptive-a's %.2f ms (CI95 %.2f + %.2f)",
					lambda, name, 1e3*x.AccessTime, 1e3*a.AccessTime, 1e3*x.AccessTimeCI, 1e3*a.AccessTimeCI)
			}
		}
		if lambda == 53 {
			if again := cell(lambda, prefetcher.AdaptiveThreshold(prefetcher.ModelA())); !reflect.DeepEqual(again, a) {
				t.Errorf("adaptive-a at λ %.0f re-run: %+v, first run %+v", lambda, again, a)
			}
		}
	}
}
