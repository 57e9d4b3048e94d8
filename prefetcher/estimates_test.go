package prefetcher

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/window"
)

// TestEstimatesTrackTruth holds the rates the threshold rule reads to
// ground truth one window span into a Poisson stream on a ManualClock,
// with one caller and with eight issuing each round's requests at once:
// λ̂ and n̄(F) within [0.9, 1.1] of the offered rate and of issued
// prefetches per request, and the origin link's ρ̂′ within 10 % of the
// demand bytes it carried over b.
func TestEstimatesTrackTruth(t *testing.T) {
	const (
		lambda    = 1000.0 // requests per second
		size      = 100.0  // every item's size
		bandwidth = 400e3  // link ρ̂′ ≈ 0.05–0.2: prefetches are admitted
		ring      = 64     // ids walk a ring: id → id+1 with p 0.8
	)
	for _, callers := range []int{1, 8} {
		t.Run(fmt.Sprintf("callers=%d", callers), func(t *testing.T) {
			clock := NewManualClock(time.Unix(0, 0))
			e, err := New(FetcherFunc(func(_ context.Context, id ID) (Item, error) {
				return Item{ID: id, Size: size}, nil
			}),
				WithClock(clock),
				WithBandwidth(bandwidth),
				WithCache(NewLRUCache(16)),
				withQueueDepth(256),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ctx := context.Background()
			src := rng.New(uint64(17 + callers))
			gap := rng.Exponential{Rate: lambda}
			ids := make([]ID, callers)
			cur := ID(0)
			// Rounds of callers arrivals, each round at the time of its
			// last arrival, until one span of the clock has passed.
			elapsed := 0.0
			for {
				step := 0.0
				for i := range ids {
					step += gap.Sample(src)
					if rng.Bernoulli(src, 0.8) {
						cur = (cur + 1) % ring
					} else {
						cur = ID(src.Intn(ring))
					}
					ids[i] = cur
				}
				if elapsed+step >= window.DefaultSpan {
					break
				}
				elapsed += step
				clock.AdvanceSeconds(step)
				var wg sync.WaitGroup
				for _, id := range ids {
					wg.Add(1)
					go func(id ID) {
						defer wg.Done()
						if _, err := e.Get(ctx, id); err != nil {
							t.Error(err)
						}
					}(id)
				}
				wg.Wait()
				if err := e.Quiesce(ctx); err != nil {
					t.Fatal(err)
				}
			}

			st := e.Stats()
			if st.PrefetchIssued == 0 || st.PrefetchDropped != 0 || st.PrefetchErrors != 0 {
				t.Fatalf("want prefetches issued, none dropped or failed: %v", st)
			}
			within := func(what string, got, truth, lo, hi float64) {
				t.Helper()
				t.Logf("%s: estimate %.4g, truth %.4g (ratio %.3f)", what, got, truth, got/truth)
				if got < lo*truth || got > hi*truth {
					t.Errorf("%s = %v, want within [%v, %v] of %v", what, got, lo, hi, truth)
				}
			}
			within("λ̂", st.Lambda, lambda, 0.9, 1.1)
			within("n̄(F)", st.NF, float64(st.PrefetchIssued)/float64(st.Requests), 0.9, 1.1)
			b := st.Backends[0]
			within("link ρ̂′", b.RhoPrime, float64(b.Demand)*size/elapsed/bandwidth, 0.9, 1.1)
		})
	}
}
