package prefetch

import (
	"sync"
	"testing"

	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/predict"
)

// TestControllerConcurrent hammers every Controller entry point from
// multiple goroutines; run under -race it proves the window and the
// tagged-cache estimator are properly synchronised (the concurrent
// engine calls them from its demand path and its prefetch workers).
func TestControllerConcurrent(t *testing.T) {
	ctrl := NewController(50, 0)
	pol := Threshold{Model: analytic.ModelA{}}
	cands := []predict.Prediction{
		{Item: 1, Prob: 0.9}, {Item: 2, Prob: 0.5}, {Item: 3, Prob: 0.1},
	}

	var wg sync.WaitGroup
	const workers = 8
	const iters = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			est := ctrl.Estimator()
			for i := 0; i < iters; i++ {
				id := cache.ID(w*iters + i)
				ctrl.RecordRequest(float64(i)*0.01, 1)
				switch i % 4 {
				case 0:
					est.OnHit(id)
				case 1:
					est.OnRemoteAccess(id, true)
				case 2:
					est.OnPrefetch(id)
					ctrl.RecordPrefetch()
				case 3:
					est.OnEvict(id)
				}
				st := ctrl.State(0)
				pol.Select(cands, st)
				_ = ctrl.State(0).RhoPrime
				_ = ctrl.State(0).Lambda
				_ = ctrl.State(0).MeanSize
				_ = ctrl.State(0).NF
				_ = ctrl.State(0).HPrime
			}
		}(w)
	}
	wg.Wait()

	if got := ctrl.Estimator().Accesses(); got != workers*iters/2 {
		t.Fatalf("accesses = %d, want %d", got, workers*iters/2)
	}
	if rho := ctrl.State(0).RhoPrime; rho < 0 || rho > 1 {
		t.Fatalf("ρ̂′ = %v out of [0,1]", rho)
	}
}
