package prefetcher

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/prefetcher/fetch"
)

// TestGetHitAllocFree pins the PR's headline property as a regression
// test: a cache hit — including its prediction, accounting and dedup'd
// speculative planning — allocates nothing.
func TestGetHitAllocFree(t *testing.T) {
	eng, ids := newHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := eng.Get(ctx, ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Get allocated %v times per call; want 0", allocs)
	}
}

// ringPredictor is an external TopIntoPredictor over newHitEngine's
// catalog: after id it names the next ids of the ring. Goroutine-safe,
// so it can also stand behind the ConcurrentPredictor marker.
type ringPredictor struct{ last atomic.Int64 }

func (p *ringPredictor) Observe(id ID)         { p.last.Store(int64(id)) }
func (p *ringPredictor) Name() string          { return "ring" }
func (p *ringPredictor) Predict() []Prediction { return p.PredictTopInto(nil, 3) }

func (p *ringPredictor) PredictTop(k int) []Prediction { return p.PredictTopInto(nil, k) }

func (p *ringPredictor) PredictTopInto(dst []Prediction, k int) []Prediction {
	last := p.last.Load()
	for i := int64(1); i <= int64(k); i++ {
		dst = append(dst, Prediction{ID: ID((last + i) % 64), Prob: 1 / float64(1+i)})
	}
	return dst
}

type concurrentRingPredictor struct{ ringPredictor }

func (*concurrentRingPredictor) ConcurrentSafe() {}

// TestPluginPredictorHitAllocFree holds the promise interfaces.go makes
// to plugin authors: behind an external TopIntoPredictor — on the
// compatibility mutex or, with the ConcurrentPredictor marker, off it —
// a cache hit still allocates nothing, because the plugin's answer is
// staged and converted in the request's own pooled scratch.
func TestPluginPredictorHitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	for _, tc := range []struct {
		name     string
		pred     Predictor
		lockFree bool
	}{
		{"plain", &ringPredictor{}, false},
		{"concurrent", &concurrentRingPredictor{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, ids := newHitEngine(t, WithPredictor(tc.pred), WithPolicy(StaticThreshold(0.1)))
			defer eng.Close()
			warm := eng.Stats()
			if warm.PredictorLockFree != tc.lockFree {
				t.Fatalf("PredictorLockFree = %v, want %v", warm.PredictorLockFree, tc.lockFree)
			}
			ctx := context.Background()
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := eng.Get(ctx, ids[i%len(ids)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("cache-hit Get behind a %s plugin allocated %v times per call; want 0", tc.name, allocs)
			}
			if st := eng.Stats(); st.Misses != warm.Misses || st.PrefetchIssued == 0 {
				t.Fatalf("the gate must stay on the hit path of an engine whose plugin's candidates are admitted: %+v", st)
			}
		})
	}
}

// TestGetMultiAllocFree pins the batched demand path's headline
// property: an all-hit GetMultiInto session — the gather across
// shards, the linearised predictor observation sequence, per-key
// accounting and the session's one speculative plan — allocates
// nothing when the caller reuses its result buffer.
func TestGetMultiAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	eng, ids := newHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	const fanout = 8
	session := make([]ID, fanout)
	dst := make([]Item, 0, fanout)
	fill := func(base int) {
		for k := range session {
			session[k] = ids[(base+k)%len(ids)]
		}
	}
	// Warm passes grow the pooled session scratch to the fan-out.
	for w := 0; w < 2; w++ {
		fill(w)
		var err error
		if dst, err = eng.GetMultiInto(ctx, session, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		fill(i)
		var err error
		dst, err = eng.GetMultiInto(ctx, session, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("all-hit GetMultiInto allocated %v times per session; want 0", allocs)
	}
}

// TestOversizedSessionScratchNotPooled pins the other side of the
// pooled scratch: a session is as large as its caller makes it, and the
// scratch one oversized session grew must not sit in the pool for the
// life of the process.
func TestOversizedSessionScratchNotPooled(t *testing.T) {
	eng, _ := newHitEngine(t)
	defer eng.Close()
	session := make([]ID, 4*maxPooledKeys)
	for i := range session {
		session[i] = ID(i % 64) // all resident: nothing to fetch
	}
	if _, err := eng.GetMultiInto(context.Background(), session, nil); err != nil {
		t.Fatal(err)
	}
	// On one goroutine a Put is the next Get's result, so a pooled
	// oversized scratch would come straight back.
	sc := eng.getMulti()
	defer eng.putMulti(sc)
	if cap(sc.states) > maxPooledKeys {
		t.Fatalf("pool handed back scratch sized for %d keys; putMulti must drop anything past %d", cap(sc.states), maxPooledKeys)
	}
}

// TestFabricBatchDispatchAllocFree pins the routed-speculation
// counterpart of TestGetHitAllocFree: with a multi-backend,
// batch-capable fabric, a steady-state cache hit — prediction, backend
// partitioning, per-link admission, the global-cap trim and dispatch
// (dedup finds every candidate resident, so no job is drawn) —
// allocates nothing: the planning tables ride in the request's own
// pooled scratch.
func TestFabricBatchDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	eng, err := New(nil,
		WithBackends(
			fetch.Backend{Name: "a", Fetcher: &batchBackend{}},
			fetch.Backend{Name: "b", Fetcher: &batchBackend{}},
		),
		WithBandwidth(1e6),
		WithShards(1),
		WithCache(NewLRUCache(4*64)),
		WithWorkers(1),
		WithMaxPrefetch(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	ids := make([]ID, 64)
	for i := range ids {
		ids[i] = ID(i)
	}
	// Two warm passes: the first faults everything in, the second walks
	// the same cycle so every predicted successor is itself resident.
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			if _, err := eng.Get(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := eng.Get(ctx, ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("routed cache-hit Get allocated %v times per call; want 0", allocs)
	}
}

// TestPredictTopIntoAllocFree asserts the pooled prediction path of the
// concurrent model the engine calls.
func TestPredictTopIntoAllocFree(t *testing.T) {
	models := map[string]*predict.ConcurrentMarkov1{
		"markov1": predict.NewConcurrentMarkov1(),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			const items = 64
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < items; i++ {
					m.ObserveAndPredictTop(cache.ID(i), 0)
				}
			}
			buf := make([]predict.Prediction, 0, 8)
			i := 0
			allocs := testing.AllocsPerRun(500, func() {
				buf = m.ObserveAndPredictTopInto(cache.ID(i%items), 2, buf[:0])
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s: ObserveAndPredictTopInto allocated %v times per call; want 0", name, allocs)
			}
		})
	}
}

// TestPredictTopIntoMatchesPredictTop pins the Into contract: for the
// concurrent model, PredictTopInto appends exactly PredictTop(k) (which
// the existing property tests tie to Predict()[:k]).
func TestPredictTopIntoMatchesPredictTop(t *testing.T) {
	models := map[string]*predict.ConcurrentMarkov1{
		"markov1": predict.NewConcurrentMarkov1(),
	}
	seq := []int{1, 2, 3, 1, 2, 4, 1, 3, 2, 2, 5, 1, 2, 3, 4, 5, 1, 2}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			buf := make([]predict.Prediction, 0, 8)
			for _, id := range seq {
				m.Observe(cache.ID(id))
				for k := 1; k <= 4; k++ {
					want := m.PredictTop(k)
					got := m.PredictTopInto(buf[:0], k)
					if len(got) != len(want) {
						t.Fatalf("%s: PredictTopInto(k=%d) returned %d candidates, PredictTop %d", name, k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: PredictTopInto(k=%d)[%d] = %+v, PredictTop = %+v", name, k, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestStatsWaitFreeMatchesEventLog drives concurrent load while a
// dedicated goroutine hammers Stats — the wait-free snapshot must stay
// internally consistent mid-flight (ratios in [0,1], outcome counters
// never exceeding requests) and, once traffic quiesces, must equal the
// independently tallied event log exactly, which is the locked
// aggregation the padded atomic counters replaced.
func TestStatsWaitFreeMatchesEventLog(t *testing.T) {
	var tally struct {
		hits, misses, joins           atomic.Int64
		issued, done, dropped, errors atomic.Int64
	}
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 2}, nil
	})
	eng, err := New(fetcher,
		WithBandwidth(1e6),
		WithShards(4),
		WithCacheFactory(func(i, n int) Cache { return NewSLRUCache(64, 32) }),
		WithWorkers(4),
		WithMaxPrefetch(2),
		WithEventHook(func(ev Event) {
			switch ev.Type {
			case EventHit:
				tally.hits.Add(1)
			case EventMiss:
				tally.misses.Add(1)
			case EventJoin:
				tally.joins.Add(1)
			case EventPrefetchIssued:
				tally.issued.Add(1)
			case EventPrefetchDone:
				tally.done.Add(1)
			case EventPrefetchDropped:
				tally.dropped.Add(1)
			case EventPrefetchError:
				tally.errors.Add(1)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const (
		clients  = 8
		requests = 2000
	)
	ctx := context.Background()
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := eng.Stats()
			if st.Hits+st.Misses > st.Requests {
				t.Errorf("mid-flight snapshot broke the outcome invariant: hits=%d misses=%d requests=%d",
					st.Hits, st.Misses, st.Requests)
				return
			}
			if r := st.HitRatio(); r < 0 || r > 1 {
				t.Errorf("mid-flight hit ratio %v outside [0,1]", r)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				id := ID((c*31 + i) % 512)
				if _, err := eng.Get(ctx, id); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if want := int64(clients * requests); st.Requests != want {
		t.Fatalf("requests = %d, want %d", st.Requests, want)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Fatalf("hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	if got, want := st.Hits, tally.hits.Load(); got != want {
		t.Fatalf("Stats.Hits = %d, event log counted %d", got, want)
	}
	// EventMiss is only emitted by the fetching request; joiners and
	// requests served by a concurrent fill count as misses without one.
	if got, want := st.Misses, tally.misses.Load(); got < want {
		t.Fatalf("Stats.Misses = %d < %d EventMiss emissions", got, want)
	}
	if got, want := st.Joins, tally.joins.Load(); got > want {
		t.Fatalf("Stats.Joins = %d > %d EventJoin emissions (joins count once per request)", got, want)
	}
	if got, want := st.PrefetchIssued, tally.issued.Load(); got != want {
		t.Fatalf("Stats.PrefetchIssued = %d, event log counted %d", got, want)
	}
	if got, want := st.PrefetchDropped, tally.dropped.Load(); got != want {
		t.Fatalf("Stats.PrefetchDropped = %d, event log counted %d", got, want)
	}
	if got, want := st.PrefetchErrors, tally.errors.Load(); got != want {
		t.Fatalf("Stats.PrefetchErrors = %d, event log counted %d", got, want)
	}
	if done := tally.done.Load(); st.PrefetchIssued != done {
		t.Fatalf("issued %d prefetches but %d completed after quiesce", st.PrefetchIssued, done)
	}
	if st.PrefetchUsed+st.PrefetchWasted > st.PrefetchIssued {
		t.Fatalf("used %d + wasted %d > issued %d", st.PrefetchUsed, st.PrefetchWasted, st.PrefetchIssued)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after quiesce", st.InFlight)
	}
	checkRecords(t, eng)
}
