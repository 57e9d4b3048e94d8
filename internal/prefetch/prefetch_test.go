package prefetch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/rng"
)

func cands(ps ...float64) []predict.Prediction {
	out := make([]predict.Prediction, len(ps))
	for i, p := range ps {
		out[i] = predict.Prediction{Item: cache.ID(i), Prob: p}
	}
	return out
}

func TestNonePolicy(t *testing.T) {
	if got := (None{}).Select(cands(0.9, 0.8), State{}); got != nil {
		t.Errorf("None selected %v", got)
	}
	if None.Name(None{}) != "none" {
		t.Error("name wrong")
	}
}

func TestStaticPolicy(t *testing.T) {
	p := Static{Theta: 0.5}
	got := p.Select(cands(0.9, 0.6, 0.5, 0.4), State{})
	if len(got) != 2 {
		t.Fatalf("selected %d, want 2 (strictly above 0.5)", len(got))
	}
	if got[0].Prob != 0.9 || got[1].Prob != 0.6 {
		t.Errorf("selection = %v", got)
	}
}

func TestTopKPolicy(t *testing.T) {
	p := TopK{K: 2}
	got := p.Select(cands(0.9, 0.6, 0.5), State{})
	if len(got) != 2 {
		t.Fatalf("selected %d, want 2", len(got))
	}
	if got := (TopK{K: 5}).Select(cands(0.9), State{}); len(got) != 1 {
		t.Error("K beyond candidates should return all")
	}
	if got := (TopK{K: 0}).Select(cands(0.9), State{}); got != nil {
		t.Error("K=0 should select nothing")
	}
}

func TestThresholdPolicyModelA(t *testing.T) {
	p := Threshold{Model: analytic.ModelA{}}
	st := State{RhoPrime: 0.6}
	got := p.Select(cands(0.9, 0.7, 0.6, 0.5), st)
	if len(got) != 2 {
		t.Fatalf("selected %d, want 2 (p > 0.6 strictly)", len(got))
	}
	// Exactly at the threshold is excluded (G would be zero).
	if got[len(got)-1].Prob <= 0.6 {
		t.Errorf("selection includes p <= p_th: %v", got)
	}
}

func TestThresholdPolicyModelB(t *testing.T) {
	p := Threshold{Model: analytic.ModelB{}}
	st := State{RhoPrime: 0.6, HPrime: 0.4, NC: 10} // p_th = 0.64
	got := p.Select(cands(0.9, 0.62, 0.5), st)
	if len(got) != 1 || got[0].Prob != 0.9 {
		t.Errorf("model B selection = %v, want only p=0.9", got)
	}
	// Without NC the correction silently degrades to model A behaviour.
	stNoNC := State{RhoPrime: 0.6, HPrime: 0.4}
	if got := p.Select(cands(0.62), stNoNC); len(got) != 1 {
		t.Error("NC=0 should fall back to ρ′ threshold")
	}
}

func TestThresholdPolicyModelAB(t *testing.T) {
	p := Threshold{Model: analytic.ModelAB{Alpha: 0.5}}
	st := State{RhoPrime: 0.6, HPrime: 0.4, NC: 10} // p_th = 0.6 + 0.02
	got := p.Select(cands(0.63, 0.61), st)
	if len(got) != 1 {
		t.Errorf("AB selection = %v, want only 0.63", got)
	}
}

// The rule is strict: a candidate at exactly p_th = ρ′ is not admitted.
func TestThresholdPolicyStrictAtThreshold(t *testing.T) {
	p := Threshold{Model: analytic.ModelA{}}
	got := p.Select(cands(0.75, 0.6, 0.55), State{RhoPrime: 0.6})
	if len(got) != 1 || got[0].Prob != 0.75 {
		t.Errorf("selection at p_th = 0.6: %v, want only 0.75", got)
	}
}

func TestThresholdPolicySaturated(t *testing.T) {
	p := Threshold{Model: analytic.ModelA{}}
	if got := p.Select(cands(0.99), State{RhoPrime: 1.0}); got != nil {
		t.Error("ρ′ >= 1 should disable prefetching entirely")
	}
}

// Property: every selection is a prefix of the sorted candidates, and
// every selected probability strictly exceeds the effective threshold.
func TestQuickThresholdSelection(t *testing.T) {
	f := func(probs []uint8, rhoRaw uint8) bool {
		in := make([]predict.Prediction, len(probs))
		for i, pr := range probs {
			in[i] = predict.Prediction{Item: cache.ID(i), Prob: float64(pr) / 255}
		}
		// sort descending as Predict guarantees
		for i := 1; i < len(in); i++ {
			for j := i; j > 0 && in[j].Prob > in[j-1].Prob; j-- {
				in[j], in[j-1] = in[j-1], in[j]
			}
		}
		rho := float64(rhoRaw) / 255
		sel := (Threshold{Model: analytic.ModelA{}}).Select(in, State{RhoPrime: rho})
		for i, s := range sel {
			if s != in[i] {
				return false // not a prefix
			}
			if s.Prob <= rho && rho < 1 {
				return false
			}
		}
		// Nothing past the selection should qualify.
		if len(sel) < len(in) && rho < 1 && in[len(sel)].Prob > rho {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGreedyFirstAdmissionMatchesPaperRule(t *testing.T) {
	// With a single candidate the greedy rule degenerates to the
	// paper's threshold: the first admission is judged at θ(h′, 0) = p_th.
	st := State{RhoPrime: 0.42, HPrime: 0.3}
	paper := Threshold{Model: analytic.ModelA{}}
	greedy := Greedy{Model: analytic.ModelA{}}
	for _, p := range []float64{0.1, 0.41, 0.43, 0.9} {
		in := cands(p)
		got := len(greedy.Select(in, st))
		want := len(paper.Select(in, st))
		if got != want {
			t.Errorf("p=%v: greedy %d vs paper %d", p, got, want)
		}
	}
}

func TestGreedyAdmitsBelowPaperThresholdAfterGoodAdmissions(t *testing.T) {
	// ρ′=0.42 (h′=0.3, λs̄/b=0.6): the paper rejects p=0.35, but after
	// admitting p=0.9 and p=0.8 the local threshold falls below 0.35.
	st := State{RhoPrime: 0.42, HPrime: 0.3}
	in := cands(0.9, 0.8, 0.35)
	paper := (Threshold{Model: analytic.ModelA{}}).Select(in, st)
	greedy := (Greedy{Model: analytic.ModelA{}}).Select(in, st)
	if len(paper) != 2 {
		t.Fatalf("paper rule selected %d, want 2", len(paper))
	}
	if len(greedy) != 3 {
		t.Fatalf("greedy rule selected %d, want 3 (p=0.35 admitted after load relief)", len(greedy))
	}
}

func TestGreedyNeverSelectsLessThanPaper(t *testing.T) {
	// Property: whenever the paper's selection is itself feasible (its
	// projected prefetch load stays under capacity), the greedy
	// selection is a superset — each of the paper's candidates beats
	// p_th, and the local threshold only falls below p_th as they are
	// admitted. When the paper's selection would saturate the link the
	// greedy rule may (correctly) stop earlier, so those inputs are
	// excluded.
	f := func(probs []uint8, rhoRaw, hRaw uint8) bool {
		in := make([]predict.Prediction, len(probs))
		for i, pr := range probs {
			in[i] = predict.Prediction{Item: cache.ID(i), Prob: float64(pr%101) / 100}
		}
		for i := 1; i < len(in); i++ {
			for j := i; j > 0 && in[j].Prob > in[j-1].Prob; j-- {
				in[j], in[j-1] = in[j-1], in[j]
			}
		}
		st := State{
			RhoPrime: float64(rhoRaw%100) / 100,
			HPrime:   float64(hRaw%95) / 100,
		}
		paper := (Threshold{Model: analytic.ModelA{}}).Select(in, st)
		if st.HPrime < 1 && st.RhoPrime > 0 {
			const w = 0.25 // the greedy default weight
			load := st.RhoPrime / (1 - st.HPrime)
			if float64(len(paper))*w*load >= 1 {
				return true // paper's own selection saturates: skip
			}
			gain := 0.0
			for _, c := range paper {
				gain += w * c.Prob
			}
			if st.HPrime+gain > 1 {
				return true // paper's selection breaks eq. 6: skip
			}
		}
		greedy := (Greedy{Model: analytic.ModelA{}}).Select(in, st)
		return len(greedy) >= len(paper)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGreedyConsistencyGuard(t *testing.T) {
	// Enough high-p candidates to exceed the consistency bound: with
	// weight 0.25 the projected hit ratio reaches 1 after three
	// admissions (0.3 + 3×0.25×0.99 ≈ 1.04 > 1), so the fourth must be
	// refused even though its probability clears the local threshold.
	st := State{RhoPrime: 0.42, HPrime: 0.3}
	in := cands(0.99, 0.98, 0.97, 0.96, 0.95)
	got := (Greedy{Model: analytic.ModelA{}}).Select(in, st)
	if len(got) != 2 {
		t.Errorf("greedy selected %d candidates, want 2 (h projection capped at 1)", len(got))
	}
}

// The greedy rule's first admission is the paper's: a candidate set the
// paper refuses whole, greedy refuses too (a candidate exactly at
// p_th = 0.42 included), and a lone candidate gets the same verdict from
// both.
func TestGreedyFirstAdmissionIsPaperRule(t *testing.T) {
	st := State{RhoPrime: 0.42, HPrime: 0.3}
	paper := Threshold{Model: analytic.ModelA{}}
	greedy := Greedy{Model: analytic.ModelA{}}
	inputs := [][]predict.Prediction{
		cands(0.42, 0.41, 0.1),
		cands(0.41),
		cands(0.42),
		cands(0.43),
	}
	for i, in := range inputs {
		if p, g := paper.Select(in, st), greedy.Select(in, st); len(p) != len(g) {
			t.Errorf("input %d: paper %d vs greedy %d", i, len(p), len(g))
		}
	}
}

func TestGreedyModelBDisplacement(t *testing.T) {
	stA := State{RhoPrime: 0.42, HPrime: 0.3}
	stB := State{RhoPrime: 0.42, HPrime: 0.3, NC: 5} // d = 0.06
	in := cands(0.45)
	if got := (Greedy{Model: analytic.ModelA{}}).Select(in, stA); len(got) != 1 {
		t.Error("model A should admit p=0.45 at p_th=0.42")
	}
	if got := (Greedy{Model: analytic.ModelB{}}).Select(in, stB); len(got) != 0 {
		t.Error("model B with d=0.06 should reject p=0.45 (p_th=0.48)")
	}
}

func TestGreedyName(t *testing.T) {
	if (Greedy{Model: analytic.ModelA{}}).Name() != "greedy-threshold(model=A)" {
		t.Error("greedy name wrong")
	}
}

func TestControllerLambdaEstimate(t *testing.T) {
	c := NewController(50, 0)
	now := 0.0
	for i := 0; i < 200; i++ {
		now += 1.0 / 30 // deterministic rate 30
		c.RecordRequest(now, 1)
	}
	if math.Abs(c.State(0).Lambda-30)/30 > 0.01 {
		t.Errorf("λ̂ = %v, want ~30", c.State(0).Lambda)
	}
	if math.Abs(c.State(0).MeanSize-1) > 1e-9 {
		t.Errorf("ŝ̄ = %v, want 1", c.State(0).MeanSize)
	}
}

func TestControllerLambdaPoisson(t *testing.T) {
	c := NewController(50, 0)
	src := rng.New(41)
	inter := rng.Exponential{Rate: 30}
	now := 0.0
	for i := 0; i < 20000; i++ {
		now += inter.Sample(src)
		c.RecordRequest(now, 1)
	}
	if math.Abs(c.State(0).Lambda-30)/30 > 0.15 {
		t.Errorf("λ̂ = %v, want ~30", c.State(0).Lambda)
	}
}

func TestControllerRhoPrime(t *testing.T) {
	c := NewController(50, 0)
	now := 0.0
	for i := 0; i < 100; i++ {
		now += 1.0 / 30
		c.RecordRequest(now, 1)
	}
	// h′ estimate is 0 (no cache events yet) → ρ̂′ = 1·30·1/50 = 0.6.
	if math.Abs(c.State(0).RhoPrime-0.6) > 0.01 {
		t.Errorf("ρ̂′ = %v, want 0.6", c.State(0).RhoPrime)
	}
	// Now report cache hits raising ĥ′ to 0.5: ρ̂′ halves.
	est := c.Estimator()
	for i := 0; i < 10; i++ {
		est.OnRemoteAccess(cache.ID(i), true)
		est.OnHit(cache.ID(i))
	}
	if math.Abs(c.State(0).HPrime-0.5) > 1e-12 {
		t.Fatalf("ĥ′ = %v, want 0.5", c.State(0).HPrime)
	}
	if math.Abs(c.State(0).RhoPrime-0.3) > 0.01 {
		t.Errorf("ρ̂′ = %v, want 0.3", c.State(0).RhoPrime)
	}
}

func TestControllerNF(t *testing.T) {
	// n̄(F) is the window's prefetches over its requests, counted as
	// they happen.
	c := NewController(50, 0)
	if c.State(0).NF != 0 {
		t.Errorf("n̄(F) = %v before any request, want 0", c.State(0).NF)
	}
	c.RecordRequest(1, 1)
	c.RecordPrefetch()
	c.RecordPrefetch()
	c.RecordPrefetch()
	if math.Abs(c.State(0).NF-3) > 1e-12 {
		t.Errorf("n̄(F) = %v after 3 prefetches for one request, want 3", c.State(0).NF)
	}
	c.RecordRequest(2, 1)
	if math.Abs(c.State(0).NF-1.5) > 1e-12 {
		t.Errorf("n̄(F) = %v after 3 prefetches for two requests, want 1.5", c.State(0).NF)
	}
}

// TestControllerNFConverges drives a steady two-prefetches-per-request
// pattern and checks n̄(F) reads 2 — then shuts prefetching off and
// checks n̄(F) decays toward 0 once the window has passed, the
// adaptivity the lifetime ratio prefetches/requests could never show.
func TestControllerNFConverges(t *testing.T) {
	c := NewController(50, 5)
	now := 0.0
	for i := 0; i < 200; i++ {
		now += 0.1
		c.RecordRequest(now, 1)
		c.RecordPrefetch()
		c.RecordPrefetch()
	}
	if math.Abs(c.State(0).NF-2) > 0.01 {
		t.Fatalf("n̄(F) = %v after steady 2/request, want ~2", c.State(0).NF)
	}
	// Prefetch volume collapses; the lifetime ratio would stay pinned
	// near 2 but the window must track the shift.
	for i := 0; i < 200; i++ {
		now += 0.1
		c.RecordRequest(now, 1)
	}
	if c.State(0).NF > 0.01 {
		t.Fatalf("n̄(F) = %v after prefetching stopped, want ~0", c.State(0).NF)
	}
}

func TestControllerState(t *testing.T) {
	c := NewController(50, 0)
	now := 0.0
	for i := 0; i < 50; i++ {
		now += 1.0 / 30
		c.RecordRequest(now, 1)
	}
	st := c.State(200)
	if st.NC != 200 {
		t.Error("NC not propagated")
	}
	if st.RhoPrime <= 0 {
		t.Error("RhoPrime missing from state")
	}
}

func TestControllerClamps(t *testing.T) {
	c := NewController(1, 0) // tiny bandwidth → huge ρ′
	now := 0.0
	for i := 0; i < 10; i++ {
		now += 0.001
		c.RecordRequest(now, 5)
	}
	if c.State(0).RhoPrime != 1 {
		t.Errorf("ρ̂′ should clamp to 1, got %v", c.State(0).RhoPrime)
	}
}

func TestControllerEmpty(t *testing.T) {
	c := NewController(10, 0)
	if c.State(0).Lambda != 0 || c.State(0).MeanSize != 0 || c.State(0).RhoPrime != 0 || c.State(0).NF != 0 {
		t.Error("fresh controller should report zeros")
	}
}

func TestControllerPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bandwidth 0 should panic")
			}
		}()
		NewController(0, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a negative span should panic")
			}
		}()
		NewController(10, -1)
	}()
}

// End-to-end adaptivity: when load doubles, the controller's threshold
// rises, and the paper policy stops prefetching items it previously
// accepted — the behaviour a static threshold cannot reproduce.
func TestThresholdAdaptsToLoad(t *testing.T) {
	c := NewController(50, 0)
	pol := Threshold{Model: analytic.ModelA{}}
	candidates := cands(0.5)

	now := 0.0
	for i := 0; i < 300; i++ {
		now += 1.0 / 15 // λ=15 → ρ′=0.3
		c.RecordRequest(now, 1)
	}
	if got := pol.Select(candidates, c.State(0)); len(got) != 1 {
		t.Fatalf("at ρ′≈0.3 a p=0.5 item should be prefetched (ρ̂′=%v)", c.State(0).RhoPrime)
	}

	for i := 0; i < 600; i++ {
		now += 1.0 / 35 // λ=35 → ρ′=0.7
		c.RecordRequest(now, 1)
	}
	if got := pol.Select(candidates, c.State(0)); len(got) != 0 {
		t.Fatalf("at ρ′≈0.7 a p=0.5 item must not be prefetched (ρ̂′=%v)", c.State(0).RhoPrime)
	}
}
