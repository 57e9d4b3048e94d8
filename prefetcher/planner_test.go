package prefetcher

import (
	"math"
	"testing"
)

func TestPlannerThresholds(t *testing.T) {
	par := PlanParams{Lambda: 30, Bandwidth: 50, MeanSize: 1, HPrime: 0.3, NC: 100}

	tests := []struct {
		name  string
		model Model
		want  float64 // p_th
	}{
		// Model A: p_th = ρ′ = (1−h′)λs̄/b = 0.7·30/50 = 0.42.
		{"model A", ModelA(), 0.42},
		// Model B adds h′/n̄(C) = 0.3/100.
		{"model B", ModelB(), 0.42 + 0.003},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlanner(tc.model, par)
			if err != nil {
				t.Fatal(err)
			}
			pth, err := p.Threshold()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pth-tc.want) > 1e-12 {
				t.Fatalf("p_th = %v, want %v", pth, tc.want)
			}
			ok, err := p.ShouldPrefetch(tc.want + 0.01)
			if err != nil || !ok {
				t.Fatalf("ShouldPrefetch(just above) = %v, %v", ok, err)
			}
			ok, err = p.ShouldPrefetch(tc.want - 0.01)
			if err != nil || ok {
				t.Fatalf("ShouldPrefetch(just below) = %v, %v", ok, err)
			}
		})
	}
}

func TestPlannerEvaluateAndErrors(t *testing.T) {
	par := PlanParams{Lambda: 30, Bandwidth: 50, MeanSize: 1, HPrime: 0.3}
	p, err := NewPlanner(ModelA(), par)
	if err != nil {
		t.Fatal(err)
	}

	// Above-threshold prefetching improves the access time (G > 0).
	e, err := p.Evaluate(0.5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if e.G <= 0 {
		t.Fatalf("G = %v, want > 0 for p above threshold", e.G)
	}
	if e.TBarPrime-e.TBar != e.G {
		t.Fatalf("G inconsistent: t̄′−t̄ = %v, G = %v", e.TBarPrime-e.TBar, e.G)
	}
	// Below-threshold prefetching backfires (G < 0).
	bad, err := p.Evaluate(0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if bad.G >= 0 {
		t.Fatalf("G = %v, want < 0 for p below threshold", bad.G)
	}

	// Invalid parameters surface at construction.
	if _, err := NewPlanner(ModelA(), PlanParams{Lambda: -1, Bandwidth: 50, MeanSize: 1}); err == nil {
		t.Fatal("negative λ accepted")
	}
	// Model B without n̄(C) is a construction-time error too.
	if _, err := NewPlanner(ModelB(), par); err == nil {
		t.Fatal("model B without n̄(C) accepted")
	}

	// The standalone load-impedance helper matches the paper's shape:
	// the same Δρ costs more on a busier link.
	cLow, err := ExcessCost(30, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cHigh, err := ExcessCost(30, 0.9, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if cHigh <= cLow {
		t.Fatalf("excess cost not load-impeded: low=%v high=%v", cLow, cHigh)
	}
}

func TestPlannerSized(t *testing.T) {
	par := PlanParams{Lambda: 20, Bandwidth: 50, MeanSize: 1, HPrime: 0.35}
	p, err := NewPlanner(ModelA(), par)
	if err != nil {
		t.Fatal(err)
	}
	// Under model A the threshold is size-independent.
	small, err := p.ThresholdSized(0.1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := p.ThresholdSized(5)
	if err != nil {
		t.Fatal(err)
	}
	if small != large {
		t.Fatalf("model-A sized thresholds differ: %v vs %v", small, large)
	}
	e, err := p.EvaluateSized([]SizedClass{{NF: 0.1, Prob: 0.75, Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e.G <= 0 {
		t.Fatalf("sized G = %v, want > 0", e.G)
	}
}
