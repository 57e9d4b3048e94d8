package prefetcher

import (
	"context"
	"sync"
	"testing"
)

// seqPredictor is an external (non-built-in) Predictor with deliberately
// unsynchronised state: a transition map and a current-state field with
// no locking at all. The engine must serialise every call on its
// compatibility mutex — under -race this test fails loudly if any
// Observe/Predict pair ever overlaps.
type seqPredictor struct {
	counts map[ID]map[ID]int
	cur    ID
	seen   bool

	observes int
	predicts int
}

func newSeqPredictor() *seqPredictor {
	return &seqPredictor{counts: make(map[ID]map[ID]int)}
}

func (p *seqPredictor) Observe(id ID) {
	p.observes++
	if p.seen {
		row := p.counts[p.cur]
		if row == nil {
			row = make(map[ID]int)
			p.counts[p.cur] = row
		}
		row[id]++
	}
	p.cur = id
	p.seen = true
}

func (p *seqPredictor) Predict() []Prediction {
	p.predicts++
	row := p.counts[p.cur]
	if len(row) == 0 {
		return nil
	}
	total := 0
	for _, c := range row {
		total += c
	}
	best, bestC := ID(0), 0
	for id, c := range row {
		if c > bestC || (c == bestC && id < best) {
			best, bestC = id, c
		}
	}
	return []Prediction{{ID: best, Prob: float64(bestC) / float64(total)}}
}

func (p *seqPredictor) Name() string { return "external-seq" }

// topPredictor extends seqPredictor with the public TopPredictor
// interface and records which entry point the engine used.
type topPredictor struct {
	seqPredictor
	topCalls int
}

func (p *topPredictor) PredictTop(k int) []Prediction {
	p.topCalls++
	ps := p.seqPredictor.Predict()
	p.predicts-- // internal reuse, not an engine Predict dispatch
	if k < len(ps) {
		ps = ps[:k]
	}
	return ps
}

// concurrentProbe is an external ConcurrentPredictor: internally locked
// (so genuinely safe) and recording that it was driven without the
// engine's mutex is not directly observable — what is observable is
// Stats.PredictorLockFree and a clean -race run.
type concurrentProbe struct {
	mu  sync.Mutex
	seq *seqPredictor
}

func (p *concurrentProbe) Observe(id ID) {
	p.mu.Lock()
	p.seq.Observe(id)
	p.mu.Unlock()
}

func (p *concurrentProbe) Predict() []Prediction {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq.Predict()
}

func (p *concurrentProbe) Name() string { return "external-concurrent" }

func (p *concurrentProbe) ConcurrentSafe() {}

// driveEngine floods eng with overlapping demand traffic from several
// goroutines and waits for speculation to drain.
func driveEngine(t *testing.T, eng *Engine) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	const workers = 8
	const iters = 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := eng.Get(ctx, ID((w*31+i)%200)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestExternalPredictorCompatibilityPath exercises the public-Predictor
// round trip under -race: a plain external predictor with no locking of
// its own must be safe behind the engine's compatibility mutex, and the
// engine must report it as not lock-free.
func TestExternalPredictorCompatibilityPath(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	pred := newSeqPredictor()
	eng, err := New(fetcher,
		WithPredictor(pred),
		WithPolicy(StaticThreshold(0.1)),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(64) }),
		WithWorkers(4),
		WithMaxPrefetch(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	driveEngine(t, eng)

	st := eng.Stats()
	if st.PredictorLockFree {
		t.Fatal("external plain predictor must run on the mutex path")
	}
	if st.Predictor != "external-seq" {
		t.Fatalf("Stats.Predictor = %q, want external-seq", st.Predictor)
	}
	if pred.observes != int(st.Requests) {
		t.Fatalf("observes = %d, want one per request (%d)", pred.observes, st.Requests)
	}
	if pred.predicts == 0 {
		t.Fatal("Predict was never dispatched")
	}
	if st.PrefetchIssued == 0 {
		t.Fatal("external predictions never produced a prefetch")
	}
}

// TestExternalTopPredictorFastPath checks the bounded-prefix dispatch
// for external predictors: when the plugin implements the public
// TopPredictor, the hot path must call PredictTop (never the full
// Predict), as the plugin planner's capability probe promises.
func TestExternalTopPredictorFastPath(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	pred := &topPredictor{seqPredictor: *newSeqPredictor()}
	eng, err := New(fetcher,
		WithPredictor(pred),
		WithPolicy(StaticThreshold(0.1)),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(64) }),
		WithWorkers(4),
		WithMaxPrefetch(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	driveEngine(t, eng)

	st := eng.Stats()
	if st.PredictorLockFree {
		t.Fatal("a TopPredictor without the concurrency marker stays on the mutex path")
	}
	if pred.topCalls == 0 {
		t.Fatal("PredictTop was never dispatched")
	}
	if pred.predicts != 0 {
		t.Fatalf("full Predict dispatched %d times; the engine must prefer PredictTop", pred.predicts)
	}
	if st.PrefetchIssued == 0 {
		t.Fatal("top-k predictions never produced a prefetch")
	}
}

// TestExternalConcurrentPredictorLockFree: an external predictor
// carrying the ConcurrentPredictor marker is driven with no engine
// serialisation at all — the -race run checks the engine adds none, and
// Stats must report the lock-free path.
func TestExternalConcurrentPredictorLockFree(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	pred := &concurrentProbe{seq: newSeqPredictor()}
	eng, err := New(fetcher,
		WithPredictor(pred),
		WithPolicy(StaticThreshold(0.1)),
		WithShards(8),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(32) }),
		WithWorkers(4),
		WithMaxPrefetch(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	driveEngine(t, eng)

	st := eng.Stats()
	if !st.PredictorLockFree {
		t.Fatal("ConcurrentPredictor marker must select the lock-free path")
	}
	if pred.seq.observes != int(st.Requests) {
		t.Fatalf("observes = %d, want %d", pred.seq.observes, st.Requests)
	}
}

// TestBuiltinPredictorPaths pins that the built-in runs lock-free: the
// constructor satisfies ConcurrentPredictor, and the adapter preserves
// the marker for use outside an Engine too.
func TestBuiltinPredictorPaths(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	cases := []struct {
		name     string
		pred     Predictor
		lockFree bool
	}{
		{"markov", NewMarkovPredictor(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := tc.pred.(ConcurrentPredictor); ok != tc.lockFree {
				t.Fatalf("public marker = %v, want %v", ok, tc.lockFree)
			}
			eng, err := New(fetcher, WithBandwidth(100), WithPredictor(tc.pred))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Get(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			if got := eng.Stats().PredictorLockFree; got != tc.lockFree {
				t.Fatalf("PredictorLockFree = %v, want %v", got, tc.lockFree)
			}
		})
	}
}

// TestPlainPredictorSeesSessionsWhole: a plain predictor sees a GetMulti
// session as one critical section. Eight goroutines issue sessions of
// four consecutive ids, every session on ids of its own; however the
// sessions interleave, the observation log must be a sequence of whole
// sessions, each in order.
func TestPlainPredictorSeesSessionsWhole(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	pred := &recordingPredictor{}
	eng, err := New(fetcher,
		WithBandwidth(1e6),
		WithPredictor(pred),
		WithShards(4),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(64) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const workers, sessions, fanout = 8, 100, 4
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]ID, fanout)
			for s := 0; s < sessions; s++ {
				for k := range ids {
					ids[k] = ID((w*sessions+s)*fanout + k)
				}
				if _, err := eng.GetMulti(ctx, ids); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	obs := pred.stream()
	if len(obs) != workers*sessions*fanout {
		t.Fatalf("observed %d ids, want %d", len(obs), workers*sessions*fanout)
	}
	for i := 0; i < len(obs); i += fanout {
		for k := 0; k < fanout; k++ {
			if obs[i]%fanout != 0 || obs[i+k] != obs[i]+ID(k) {
				t.Fatalf("observations %d..%d = %v: not one whole session in order", i, i+fanout-1, obs[i:i+fanout])
			}
		}
	}
}
