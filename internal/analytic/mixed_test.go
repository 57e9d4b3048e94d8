package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMixedReducesToSingleClass(t *testing.T) {
	par := paperParams(0.3)
	for _, c := range []Class{{NF: 0.5, P: 0.7}, {NF: 1, P: 0.5}, {NF: 0.2, P: 0.9}} {
		single, err := Evaluate(ModelA{}, par, c.NF, c.P)
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := EvaluateMixed(ModelA{}, par, []Class{c})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single.G-mixed.G) > 1e-15 || math.Abs(single.TBar-mixed.TBar) > 1e-15 {
			t.Errorf("class %+v: mixed (G=%v) != single (G=%v)", c, mixed.G, single.G)
		}
	}
}

func TestMixedSplittingAClassIsNeutral(t *testing.T) {
	// One class of nF=1 at p=0.7 equals two classes of nF=0.5 at p=0.7.
	par := paperParams(0.3)
	whole, err := EvaluateMixed(ModelA{}, par, []Class{{NF: 1, P: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	split, err := EvaluateMixed(ModelA{}, par, []Class{{NF: 0.5, P: 0.7}, {NF: 0.5, P: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole.G-split.G) > 1e-15 {
		t.Errorf("splitting a class changed G: %v vs %v", whole.G, split.G)
	}
}

func TestMixedEmptyAndZeroClasses(t *testing.T) {
	par := paperParams(0.3)
	e, err := EvaluateMixed(ModelA{}, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.G) > 1e-15 || e.NF != 0 {
		t.Errorf("empty mixture should be the baseline, got G=%v", e.G)
	}
	e2, err := EvaluateMixed(ModelA{}, par, []Class{{NF: 0, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if e2.NF != 0 {
		t.Error("zero-NF class should be ignored")
	}
}

func TestMixedValidation(t *testing.T) {
	par := paperParams(0.3)
	if _, err := EvaluateMixed(ModelA{}, par, []Class{{NF: -1, P: 0.5}}); err == nil {
		t.Error("negative NF should error")
	}
	if _, err := EvaluateMixed(ModelA{}, par, []Class{{NF: 1, P: 0}}); err == nil {
		t.Error("p=0 should error")
	}
	if _, err := EvaluateMixed(ModelA{}, par, []Class{{NF: 1, P: 1.5}}); err == nil {
		t.Error("p>1 should error")
	}
	// Joint eq. 6 violation: Σ nF·p > f′ = 0.7.
	if _, err := EvaluateMixed(ModelA{}, par, []Class{{NF: 1, P: 0.5}, {NF: 1, P: 0.5}}); err == nil {
		t.Error("joint probability bound should be enforced")
	}
}

func TestMixedAddingGoodClassHelps(t *testing.T) {
	par := paperParams(0.3) // p_th = 0.42
	base := []Class{{NF: 0.3, P: 0.6}}
	with := append([]Class{}, base...)
	with = append(with, Class{NF: 0.3, P: 0.8})
	g1, err := EvaluateMixed(ModelA{}, par, base)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := EvaluateMixed(ModelA{}, par, with)
	if err != nil {
		t.Fatal(err)
	}
	if g2.G <= g1.G {
		t.Errorf("adding a p=0.8 class should raise G: %v vs %v", g2.G, g1.G)
	}
}

func TestMixedAddingBadClassHurts(t *testing.T) {
	par := paperParams(0.3)
	base := []Class{{NF: 0.3, P: 0.6}}
	with := append([]Class{}, base...)
	with = append(with, Class{NF: 0.3, P: 0.2}) // below p_th = 0.42
	g1, err := EvaluateMixed(ModelA{}, par, base)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := EvaluateMixed(ModelA{}, par, with)
	if err != nil {
		t.Fatal(err)
	}
	if g2.G >= g1.G {
		t.Errorf("adding a p=0.2 class should lower G: %v vs %v", g2.G, g1.G)
	}
}

func TestSelectClasses(t *testing.T) {
	par := paperParams(0.3) // p_th = 0.42
	classes := []Class{
		{NF: 0.2, P: 0.9},
		{NF: 0.2, P: 0.43},
		{NF: 0.2, P: 0.42}, // exactly at threshold: excluded
		{NF: 0.2, P: 0.1},
		{NF: 0, P: 0.99}, // empty class: excluded
	}
	sel, err := SelectClasses(ModelA{}, par, classes)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].P != 0.9 || sel[1].P != 0.43 {
		t.Errorf("selection = %+v", sel)
	}
}

// bestSubsetG exhaustively evaluates all feasible subsets and returns
// the maximum G.
func bestSubsetG(t *testing.T, par Params, classes []Class) float64 {
	t.Helper()
	best := math.Inf(-1)
	for mask := 0; mask < 1<<len(classes); mask++ {
		var subset []Class
		for i, c := range classes {
			if mask&(1<<i) != 0 {
				subset = append(subset, c)
			}
		}
		e, err := EvaluateMixed(ModelA{}, par, subset)
		if err != nil {
			continue // overload or bound violation: not a feasible choice
		}
		if e.G > best {
			best = e.G
		}
	}
	return best
}

// The corrected mixed-probability rule, verified by exhaustion: the
// greedy local-threshold selection attains the maximum G over all
// subsets of a heterogeneous candidate set.
func TestMixedGreedySelectionOptimal(t *testing.T) {
	par := paperParams(0.3) // p_th = 0.42
	classes := []Class{
		{NF: 0.15, P: 0.9},
		{NF: 0.25, P: 0.6},
		{NF: 0.2, P: 0.5},
		{NF: 0.3, P: 0.3},
		{NF: 0.2, P: 0.15},
		{NF: 0.1, P: 0.45},
	}
	greedy, err := SelectClassesGreedy(ModelA{}, par, classes)
	if err != nil {
		t.Fatal(err)
	}
	eGreedy, err := EvaluateMixed(ModelA{}, par, greedy)
	if err != nil {
		t.Fatal(err)
	}
	best := bestSubsetG(t, par, classes)
	if math.Abs(eGreedy.G-best) > 1e-12 {
		t.Errorf("greedy G=%v, exhaustive best G=%v", eGreedy.G, best)
	}
	// The greedy set strictly contains the paper's: once the four
	// above-ρ′ classes are in, the local threshold falls to ~0.28 and
	// the p=0.3 class becomes profitable too.
	if len(greedy) != 5 {
		t.Errorf("greedy picked %d classes, want 5 (paper's 4 plus p=0.3)", len(greedy))
	}
}

// Reproduction finding (table T10, `go run ./cmd/prefetchbench -run
// T10`): the paper's fixed-threshold rule is safe but conservative on
// heterogeneous candidates — its selection is a subset of the greedy one
// and its G is never higher, yet always non-negative.
func TestMixedPaperRuleConservative(t *testing.T) {
	par := paperParams(0.3)
	classes := []Class{
		{NF: 0.15, P: 0.9},
		{NF: 0.25, P: 0.6},
		{NF: 0.3, P: 0.3},
		{NF: 0.2, P: 0.15},
	}
	paper, err := SelectClasses(ModelA{}, par, classes)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := SelectClassesGreedy(ModelA{}, par, classes)
	if err != nil {
		t.Fatal(err)
	}
	inGreedy := map[float64]bool{}
	for _, c := range greedy {
		inGreedy[c.P] = true
	}
	for _, c := range paper {
		if !inGreedy[c.P] {
			t.Errorf("paper-selected class p=%v missing from greedy selection", c.P)
		}
	}
	ePaper, err := EvaluateMixed(ModelA{}, par, paper)
	if err != nil {
		t.Fatal(err)
	}
	eGreedy, err := EvaluateMixed(ModelA{}, par, greedy)
	if err != nil {
		t.Fatal(err)
	}
	if ePaper.G < 0 {
		t.Errorf("paper rule must never lose: G=%v", ePaper.G)
	}
	if eGreedy.G < ePaper.G-1e-15 {
		t.Errorf("greedy (G=%v) should dominate the paper rule (G=%v)", eGreedy.G, ePaper.G)
	}
}

// Property: for random feasible class sets, the greedy subset is never
// beaten by any other subset, and always dominates the paper's rule.
func TestQuickMixedGreedyOptimal(t *testing.T) {
	par := paperParams(0.3)
	f := func(raw [4]uint16) bool {
		classes := make([]Class, len(raw))
		totalGain := 0.0
		for i, r := range raw {
			classes[i] = Class{
				NF: 0.05 + float64(r%8)/40,      // 0.05..0.225
				P:  0.05 + float64(r>>4%95)/100, // 0.05..0.99
			}
			totalGain += classes[i].NF * classes[i].P
		}
		if totalGain > par.FPrime() {
			return true // jointly infeasible sets are knapsack territory
		}
		greedy, err := SelectClassesGreedy(ModelA{}, par, classes)
		if err != nil {
			return false
		}
		eGreedy, err := EvaluateMixed(ModelA{}, par, greedy)
		if err != nil {
			return false
		}
		best := math.Inf(-1)
		for mask := 0; mask < 1<<len(classes); mask++ {
			var subset []Class
			for i, c := range classes {
				if mask&(1<<i) != 0 {
					subset = append(subset, c)
				}
			}
			e, err := EvaluateMixed(ModelA{}, par, subset)
			if err != nil {
				continue
			}
			if e.G > best {
				best = e.G
			}
		}
		if eGreedy.G < best-1e-12 {
			return false
		}
		paper, err := SelectClasses(ModelA{}, par, classes)
		if err != nil {
			return false
		}
		ePaper, err := EvaluateMixed(ModelA{}, par, paper)
		if err != nil {
			return false
		}
		return eGreedy.G >= ePaper.G-1e-12 && ePaper.G >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLocalThreshold(t *testing.T) {
	par := paperParams(0.3)
	// At the no-prefetch operating point it equals the paper's p_th.
	theta, err := LocalThreshold(ModelA{}, par, par.HPrime, 0)
	if err != nil {
		t.Fatal(err)
	}
	pth, _ := Threshold(ModelA{}, par)
	if math.Abs(theta-pth) > 1e-15 {
		t.Errorf("local threshold at baseline = %v, want p_th = %v", theta, pth)
	}
	// Higher hit ratio lowers it.
	lower, err := LocalThreshold(ModelA{}, par, 0.6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if lower >= theta {
		t.Errorf("θ(h=0.6, nF=0.3) = %v should be below θ(h′) = %v", lower, theta)
	}
	// Errors.
	if _, err := LocalThreshold(ModelA{}, par, -0.1, 0); err == nil {
		t.Error("negative h should error")
	}
	if _, err := LocalThreshold(ModelA{}, par, 0.3, 2); err != ErrOverload {
		t.Error("nF·λ·s̄ ≥ b should be overload")
	}
}

func TestMarginalGainSignMatchesThreshold(t *testing.T) {
	par := paperParams(0.3)
	pth, _ := Threshold(ModelA{}, par)
	for _, p := range []float64{0.1, 0.3, 0.41, 0.43, 0.6, 0.9} {
		mg, err := MarginalGain(ModelA{}, par, p)
		if err != nil {
			t.Fatal(err)
		}
		if (p > pth) != (mg > 0) {
			t.Errorf("p=%v: marginal gain %v inconsistent with threshold %v", p, mg, pth)
		}
	}
	// At p exactly p_th the marginal gain vanishes.
	mg, err := MarginalGain(ModelA{}, par, pth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mg) > 1e-15 {
		t.Errorf("marginal gain at threshold = %v, want 0", mg)
	}
}

// MarginalGain must match a numerical derivative of G at nF → 0.
func TestMarginalGainMatchesNumericalDerivative(t *testing.T) {
	par := paperParams(0.3)
	for _, m := range []Model{ModelA{}, ModelB{}, ModelAB{Alpha: 0.4}} {
		for _, p := range []float64{0.3, 0.5, 0.8} {
			mg, err := MarginalGain(m, par, p)
			if err != nil {
				t.Fatal(err)
			}
			const eps = 1e-6
			g, err := GainClosedForm(m, par, eps, p)
			if err != nil {
				t.Fatal(err)
			}
			numeric := g / eps
			if math.Abs(mg-numeric) > 1e-4*math.Max(1, math.Abs(numeric)) {
				t.Errorf("%s p=%v: analytic %v vs numeric %v", m.Name(), p, mg, numeric)
			}
		}
	}
}

func TestMarginalGainErrors(t *testing.T) {
	par := paperParams(0.3)
	if _, err := MarginalGain(ModelA{}, par, 0); err == nil {
		t.Error("p=0 should error")
	}
	bad := Params{Lambda: 100, B: 50, SBar: 1}
	if _, err := MarginalGain(ModelA{}, bad, 0.5); err == nil {
		t.Error("overloaded baseline should error")
	}
}
