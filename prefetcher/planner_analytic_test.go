package prefetcher

import (
	"math"
	"testing"

	"repro/internal/analytic"
)

// TestPlannerIsAnalytic holds every Planner method to the closed form it
// wraps: the same model and parameters handed to internal/analytic give
// the same numbers, bit for bit, and an item exactly at p_th is not
// prefetched (the rule is a strict p > p_th).
func TestPlannerIsAnalytic(t *testing.T) {
	par := PlanParams{Lambda: 30, Bandwidth: 50, MeanSize: 1, HPrime: 0.3, NC: 100}
	ap := analytic.Params{Lambda: 30, B: 50, SBar: 1, HPrime: 0.3, NC: 100}
	for _, tc := range []struct {
		name  string
		model Model
		am    analytic.Model
	}{
		{"model A", ModelA(), analytic.ModelA{}},
		{"model B", ModelB(), analytic.ModelB{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlanner(tc.model, par)
			if err != nil {
				t.Fatal(err)
			}
			pth, err := p.Threshold()
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := analytic.Threshold(tc.am, ap); pth != want {
				t.Errorf("Threshold = %v, analytic %v", pth, want)
			}
			if at, _ := p.ShouldPrefetch(pth); at {
				t.Errorf("ShouldPrefetch(p_th = %v) = true, want false", pth)
			}
			if above, _ := p.ShouldPrefetch(math.Nextafter(pth, 1)); !above {
				t.Errorf("ShouldPrefetch just above p_th = false")
			}
			e, err := p.Evaluate(0.5, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := analytic.Evaluate(tc.am, ap, 0.5, 0.6); e != fromAnalytic(want) {
				t.Errorf("Evaluate = %+v, analytic %+v", e, want)
			}
			if e.G <= 0 || e.C <= 0 {
				t.Errorf("G = %v, C = %v: want both > 0 above the threshold", e.G, e.C)
			}
			tp, err := p.AccessTimeNoPrefetch()
			if want, _ := ap.AccessTimeNoPrefetch(); err != nil || tp != want {
				t.Errorf("AccessTimeNoPrefetch = %v, %v; analytic %v", tp, err, want)
			}
			if got, want := p.MaxPrefetchable(0.7), ap.MaxPrefetchable(0.7); got != want {
				t.Errorf("MaxPrefetchable(0.7) = %v, analytic %v", got, want)
			}
			ts, err := p.ThresholdSized(4)
			if want, _ := analytic.ThresholdSized(tc.am, ap, 4); err != nil || ts != want {
				t.Errorf("ThresholdSized(4) = %v, %v; analytic %v", ts, err, want)
			}
			es, err := p.EvaluateSized([]SizedClass{{NF: 0.3, Prob: 0.7, Size: 2}})
			want, _ := analytic.EvaluateSized(tc.am, ap, []analytic.SizedClass{{NF: 0.3, P: 0.7, Size: 2}})
			if err != nil || es != fromAnalytic(want) {
				t.Errorf("EvaluateSized = %+v, %v; analytic %+v", es, err, want)
			}
		})
	}
}
