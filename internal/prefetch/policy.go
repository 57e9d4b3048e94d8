// Package prefetch turns the paper's analytical result into deployable
// prefetch policies. The paper's conclusion — "to maximise the access
// improvement, prefetch exclusively all items with access probabilities
// exceeding a certain threshold" where the threshold is p_th = ρ′ (model
// A) or ρ′ + h′/n̄(C) (model B) — becomes the Threshold policy, fed by
// an online Controller that estimates ρ′ and h′ while prefetching runs
// (using the Section-4 tagged-cache estimator).
//
// Baseline policies (no prefetching, a fixed threshold, top-k) are
// provided for the end-to-end comparison experiment (T7): the paper's
// rule should dominate a mis-set static threshold precisely because the
// right cutoff moves with network load.
package prefetch

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/predict"
)

// State carries the online estimates a policy may consult when deciding
// what to prefetch.
type State struct {
	// RhoPrime is the estimated no-prefetch utilisation ρ′ = f′λs̄/b.
	RhoPrime float64
	// HPrime is the estimated no-prefetch hit ratio h′.
	HPrime float64
	// NC is the estimated average cache occupancy n̄(C).
	NC float64
	// NF is the recent average number of prefetches per request n̄(F).
	NF float64
	// Lambda and MeanSize are the request rate λ̂ and mean item size ŝ̄
	// behind the controller's RhoPrime.
	Lambda, MeanSize float64
}

// Policy selects which predicted items to prefetch after a request.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Select returns the subset of candidates to prefetch. Candidates
	// arrive sorted by decreasing probability; the returned slice must
	// preserve that order.
	Select(cands []predict.Prediction, st State) []predict.Prediction
}

// None never prefetches — the demand-fetch baseline (the paper's
// "no prefetch" case).
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Select implements Policy.
func (None) Select([]predict.Prediction, State) []predict.Prediction { return nil }

// Static prefetches every candidate whose probability exceeds a fixed
// threshold Theta — the heuristic the paper's introduction says is
// "usually resorted to" before this analysis.
type Static struct {
	// Theta is the fixed probability cutoff in [0,1].
	Theta float64
}

// Name implements Policy.
func (s Static) Name() string { return fmt.Sprintf("static(θ=%g)", s.Theta) }

// Select implements Policy.
func (s Static) Select(cands []predict.Prediction, _ State) []predict.Prediction {
	return takeAbove(cands, s.Theta)
}

// TopK prefetches the K most probable candidates regardless of their
// absolute probability — a common aggressive heuristic that ignores
// network load entirely.
type TopK struct {
	// K is the number of items to prefetch per request.
	K int
}

// Name implements Policy.
func (t TopK) Name() string { return fmt.Sprintf("top%d", t.K) }

// Select implements Policy.
func (t TopK) Select(cands []predict.Prediction, _ State) []predict.Prediction {
	if t.K <= 0 || len(cands) == 0 {
		return nil
	}
	k := t.K
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k]
}

// Threshold is the paper's policy: prefetch exclusively all items with
// access probability above p_th, where p_th is recomputed from the
// current load estimates on every decision — ρ′ under model A (eq. 13),
// ρ′ + h′/n̄(C) under model B (eq. 21).
type Threshold struct {
	// Model chooses the interaction model used for the threshold
	// (analytic.ModelA{}, analytic.ModelB{} or analytic.ModelAB{...}).
	Model analytic.Model
}

// Name implements Policy.
func (t Threshold) Name() string {
	return fmt.Sprintf("paper-threshold(model=%s)", t.Model.Name())
}

// Select implements Policy.
func (t Threshold) Select(cands []predict.Prediction, st State) []predict.Prediction {
	pth := ThresholdFor(t.Model, st)
	if pth >= 1 {
		return nil // no admissible probability can beat the threshold
	}
	return takeAbove(cands, pth)
}

// ThresholdFor returns the paper's cutoff p_th at the estimates in st:
// ρ′ plus the model's displacement term. The analytic models derive the
// displacement from Params, but at decision time only the online
// estimates exist, so the displacement definitions are replicated here
// — this is the single place they appear outside internal/analytic.
func ThresholdFor(m analytic.Model, st State) float64 {
	pth := st.RhoPrime
	switch mm := m.(type) {
	case analytic.ModelB:
		if st.NC > 0 {
			pth += st.HPrime / st.NC
		}
	case analytic.ModelAB:
		if st.NC > 0 {
			pth += mm.Alpha * st.HPrime / st.NC
		}
	}
	return pth
}

// takeAbove returns the prefix of the sorted candidate list with
// probability strictly greater than cut.
func takeAbove(cands []predict.Prediction, cut float64) []predict.Prediction {
	n := 0
	for _, c := range cands {
		if c.Prob <= cut {
			break // sorted descending: nothing further qualifies
		}
		n++
	}
	if n == 0 {
		return nil
	}
	return cands[:n]
}

// Greedy is the corrected mixed-probability rule
// (analytic.SelectClassesGreedy) as an online policy: it admits
// candidates in descending probability order against the *local*
// marginal threshold θ(h, n̄(F)) = d + (1−h)·λs̄/(b − n̄(F)·λs̄),
// updating the projected operating point after each admission. The
// first admission uses exactly the paper's p_th; subsequent ones see a
// lower bar because each admitted prefetch relieves demand load. See
// table T10 (`go run ./cmd/prefetchbench -run T10`).
type Greedy struct {
	// Model chooses the interaction model for the displacement term.
	Model analytic.Model
}

// greedyWeight is the steady-state n̄(F) contribution Greedy projects per
// admitted candidate — roughly, how many extra prefetched items per
// request committing to this candidate class implies. Most selected
// candidates are already cached, so it is well below 1; 0.25 was
// calibrated against the full-system simulator's observed
// n̄(F)/selection ratios.
const greedyWeight = 0.25

// Name implements Policy.
func (g Greedy) Name() string {
	return fmt.Sprintf("greedy-threshold(model=%s)", g.Model.Name())
}

// Select implements Policy.
func (g Greedy) Select(cands []predict.Prediction, st State) []predict.Prediction {
	d := ThresholdFor(g.Model, State{HPrime: st.HPrime, NC: st.NC}) // the displacement alone
	if st.HPrime >= 1 || st.RhoPrime <= 0 {
		// Degenerate estimates: fall back to the paper's rule, which
		// handles them conservatively.
		return takeAbove(cands, st.RhoPrime+d)
	}
	// λs̄/b recovered from the controller's ρ′ = (1−h′)·λs̄/b. θ is
	// expressed via ρ′ and the projected hit-ratio gain Δh so that the
	// first step equals the paper's p_th = d + ρ′ *exactly* (no
	// floating-point round trip through load):
	//	(1−h)·load = (1−h′)·load − Δh·load = ρ′ − Δh·load.
	load := st.RhoPrime / (1 - st.HPrime)
	dh := 0.0
	nF := 0.0
	n := 0
	for _, c := range cands {
		den := 1 - nF*load
		if den <= 0 {
			break // committed prefetching alone would saturate the link
		}
		theta := d + (st.RhoPrime-dh*load)/den
		if c.Prob <= theta {
			break // descending order: no later candidate qualifies
		}
		// Project the operating point with this candidate class
		// contributing greedyWeight items per request. Beyond h=1 the
		// projection is inconsistent (more hit gain than there are
		// misses, eq. 6), so stop.
		if st.HPrime+dh+greedyWeight*(c.Prob-d) > 1 {
			break
		}
		dh += greedyWeight * (c.Prob - d)
		nF += greedyWeight
		n++
	}
	if n == 0 {
		return nil
	}
	return cands[:n]
}
