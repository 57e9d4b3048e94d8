package prefetcher

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/testutil"
	"repro/prefetcher/fetch"
)

// TestGetHitAllocFree pins the PR's headline property as a regression
// test: a cache hit — including its prediction, accounting and dedup'd
// speculative planning — allocates nothing. Every candidate is
// resident, so the plan queues nothing and dispatch does not yield.
func TestGetHitAllocFree(t *testing.T) {
	eng, ids := newHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	i := 0
	before := eng.Stats()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := eng.Get(ctx, ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Get allocated %v times per call; want 0", allocs)
	}
	if st := eng.Stats(); st.PrefetchIssued != before.PrefetchIssued {
		t.Fatalf("the measured hits must queue nothing, so dispatch never yields: %d issued", st.PrefetchIssued-before.PrefetchIssued)
	}
}

// ringPredictor is an external Predictor over newHitEngine's catalog:
// after id it names the next ids of the ring. Its one word of state is
// atomic, so it is safe for concurrent use without a lock.
type ringPredictor struct{ last atomic.Int64 }

func (p *ringPredictor) Observe(id ID) { p.last.Store(int64(id)) }
func (p *ringPredictor) Name() string  { return "ring" }

func (p *ringPredictor) PredictTopInto(dst []Prediction, k int) []Prediction {
	last := p.last.Load()
	for i := int64(1); i <= int64(k); i++ {
		dst = append(dst, Prediction{ID: ID((last + i) % 64), Prob: 1 / float64(1+i)})
	}
	return dst
}

// lockedRingPredictor is ringPredictor written as a sequential model:
// its state is a plain field, so it takes its own lock, as the contract
// asks of a model that is not concurrent inside.
type lockedRingPredictor struct {
	mu   sync.Mutex
	last int64
}

func (p *lockedRingPredictor) Observe(id ID) {
	p.mu.Lock()
	p.last = int64(id)
	p.mu.Unlock()
}

func (p *lockedRingPredictor) Name() string { return "locked-ring" }

func (p *lockedRingPredictor) PredictTopInto(dst []Prediction, k int) []Prediction {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := int64(1); i <= int64(k); i++ {
		dst = append(dst, Prediction{ID: ID((p.last + i) % 64), Prob: 1 / float64(1+i)})
	}
	return dst
}

// TestPluginPredictorHitAllocFree holds the promise interfaces.go makes
// to plugin authors: behind an external Predictor — a plain sequential
// model under its own lock, or one concurrent inside — a cache hit still
// allocates nothing, because the plugin's answer is staged and converted
// in the request's own pooled scratch.
func TestPluginPredictorHitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	for _, tc := range []struct {
		name string
		pred Predictor
	}{
		{"plain", &lockedRingPredictor{}},
		{"concurrent", &ringPredictor{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, ids := newHitEngine(t, WithPredictor(tc.pred), WithPolicy(StaticThreshold(0.1)))
			defer eng.Close()
			warm := eng.Stats()
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

// TestPredictTopIntoAllocFree holds the predictor's calls to 0
// allocations: the engine's ObserveAndPredictTopInto, PredictTopInto on
// the model and through the public adapter (NewMarkovPredictor, which
// converts out of a pooled staging buffer), each with rows of one
// successor and of more than k.
func TestPredictTopIntoAllocFree(t *testing.T) {
	const items = 64
	for _, tc := range []struct {
		name string
		call string
		step int // id's successors are id+1 … id+step, in turn
	}{
		{"ObserveAndPredictTopInto", "observe", 1},
		{"ObserveAndPredictTopInto, 4 successors", "observe", 4},
		{"PredictTopInto", "into", 1},
		{"PredictTopInto, 4 successors", "into", 4},
		{"public PredictTopInto", "public", 1},
		{"public PredictTopInto, 4 successors", "public", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.call == "public" {
				t.Skip("race runtime drops sync.Pool Puts by design; the adapter's pooled staging is unreachable (CI runs this gate without -race)")
			}
			pub := NewMarkovPredictor()
			m := pub.(predictorAdapter).m
			id, n := 0, 0
			next := func() {
				id = (id + 1 + n%tc.step) % items
				n++
			}
			for n < 3*items*tc.step {
				m.Observe(cache.ID(id))
				next()
			}
			buf := make([]predict.Prediction, 0, 8)
			pbuf := make([]Prediction, 0, 8)
			calls := map[string]func(){
				"observe": func() { buf = m.ObserveAndPredictTopInto(cache.ID(id), 2, buf[:0]); next() },
				"into":    func() { buf = m.PredictTopInto(buf[:0], 2) },
				"public":  func() { pbuf = pub.(TopIntoPredictor).PredictTopInto(pbuf[:0], 2) },
			}
			allocs := testing.AllocsPerRun(500, calls[tc.call])
			if allocs > 0 {
				t.Fatalf("%s allocated %v times per call; want 0", tc.name, allocs)
			}
			if got := len(buf) + len(pbuf); got != min(2, tc.step) {
				t.Fatalf("%s predicted %d candidates, want %d", tc.name, got, min(2, tc.step))
			}
		})
	}
}

// TestPredictTopIntoMatchesPredictTop pins the public Into contract:
// NewMarkovPredictor's PredictTopInto appends exactly what its model's
// PredictTopInto(nil, k) returns (which internal/predict's property
// tests tie to Predict()[:k]), converted to the public type.
func TestPredictTopIntoMatchesPredictTop(t *testing.T) {
	t.Run("markov1", func(t *testing.T) {
		pub := NewMarkovPredictor()
		m := pub.(predictorAdapter).m
		buf := make([]Prediction, 0, 8)
		for _, id := range []ID{1, 2, 3, 1, 2, 4, 1, 3, 2, 2, 5, 1, 2, 3, 4, 5, 1, 2} {
			pub.Observe(id)
			for k := 1; k <= 4; k++ {
				want := m.PredictTopInto(nil, k)
				got := pub.PredictTopInto(buf[:0], k)
				if len(got) != len(want) {
					t.Fatalf("PredictTopInto(k=%d) returned %d candidates, the model's %d", k, len(got), len(want))
				}
				for i, w := range want {
					if got[i] != (Prediction{ID: ID(w.Item), Prob: w.Prob}) {
						t.Fatalf("PredictTopInto(k=%d)[%d] = %+v, the model's %+v", k, i, got[i], w)
					}
				}
			}
		}
	})
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

// TestEngineStatsAllocCeiling holds a Stats snapshot to its one
// allocation: the fabric's per-backend slice (fetch's
// TestStatsAllocCeiling); the rest is read from atomics into the
// returned value.
func TestEngineStatsAllocCeiling(t *testing.T) {
	eng, _ := newHitEngine(t)
	defer eng.Close()
	var st Stats
	allocs := testing.AllocsPerRun(100, func() { st = eng.Stats() })
	if allocs > 1 {
		t.Fatalf("Stats allocated %v times per call; ceiling 1 (Backends)", allocs)
	}
	if st.Requests == 0 || len(st.Backends) != 1 {
		t.Fatalf("Stats read nothing: %+v", st)
	}
}

// closingCache is a Cache whose Contains — the dedup check dispatch
// makes under the shard lock — can flip the engine closed, as Close
// winning the race between a candidate's registration and the push
// does.
type closingCache struct {
	Cache
	eng  *Engine
	arm  bool
	hits int
}

func (c *closingCache) Contains(id ID) bool {
	if c.arm {
		c.eng.closed.Store(true)
		c.hits++
	}
	return c.Cache.Contains(id)
}

// TestDispatchClosedAllocFree gates dispatch's two closed arms, which a
// request reaches only while Close races it, by calling dispatch on a
// plan of two uncached ids with the engine closed before the first
// candidate registers, and closed between a registration and the push
// (the job is then failed with ErrClosed). Neither allocates.
func TestDispatchClosedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	cc := &closingCache{Cache: NewLRUCache(4 * 64)}
	eng, _ := newHitEngine(t, WithCache(cc))
	cc.eng = eng
	defer eng.Close()
	ids := make([]ID, 0, 2)
	for _, tc := range []struct {
		name        string
		closed, arm bool
	}{
		{"closed before registering", true, false},
		{"closed at the push", false, true},
	} {
		before := eng.Stats()
		allocs := testing.AllocsPerRun(100, func() {
			eng.closed.Store(tc.closed)
			cc.arm = tc.arm
			eng.dispatch(0, append(ids[:0], 1000, 1001))
			cc.arm = false
		})
		eng.closed.Store(false)
		if allocs != 0 {
			t.Fatalf("%s: dispatch allocated %v times per call; want 0", tc.name, allocs)
		}
		if st := eng.Stats(); st.InFlight != 0 || st.PrefetchIssued != before.PrefetchIssued {
			t.Fatalf("%s: a closed engine issued or kept a fetch: %+v", tc.name, st)
		}
	}
	if cc.hits < 100 {
		t.Fatalf("the push saw the engine closed %d times", cc.hits)
	}
}

// flatLender is an allocation-free, batch-capable origin lending every
// payload: 64 bytes of the id's low byte. Ids from 1<<20 up, the ones
// freshIDs names, are refused when refuse is set, and held until a
// value arrives on held (or the engine closes) when that is set.
type flatLender struct {
	batches atomic.Int64
	held    chan struct{}
	refuse  bool
}

var errLender = errors.New("flatLender: refused")

func (o *flatLender) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	if id >= 1<<20 {
		if o.refuse {
			return dst, errLender
		}
		if o.held != nil {
			select {
			case <-o.held:
			case <-ctx.Done():
				return dst, ctx.Err()
			}
		}
	}
	for i := 0; i < 64; i++ {
		dst = append(dst, byte(id))
	}
	return dst, nil
}

func (o *flatLender) Fetch(ctx context.Context, id ID) (Item, error) {
	b, err := o.FetchInto(ctx, id, nil)
	return Item{ID: id, Size: float64(len(b)), Data: b}, err
}

func (o *flatLender) FetchBatchInto(ctx context.Context, ids []ID, dst []byte, lens []int) ([]byte, []int, error) {
	o.batches.Add(1)
	for _, id := range ids {
		n := len(dst)
		var err error
		if dst, err = o.FetchInto(ctx, id, dst); err != nil {
			return dst[:n], lens, err
		}
		lens = append(lens, len(dst)-n)
	}
	return dst, lens, nil
}

func (o *flatLender) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	panic("flatLender: FetchBatch on a lending engine")
}

// freshIDs names, after an id below 1<<20, n ids never named before —
// with n = 2 on two shards of eng, when it has several — and nothing
// after the ids it names.
type freshIDs struct {
	ringPredictor
	n     int
	eng   *Engine
	named atomic.Int64 // the newest id named, less 1<<20
}

func (p *freshIDs) PredictTopInto(dst []Prediction, k int) []Prediction {
	if p.last.Load() >= 1<<20 {
		return dst
	}
	id := ID(1<<20 + p.named.Add(1))
	dst = append(dst, Prediction{ID: id, Prob: 0.5})
	if p.n == 2 {
		next := id + 1
		for len(p.eng.shards) > 1 && p.eng.shardFor(next) == p.eng.shardFor(id) {
			next++
		}
		p.named.Store(int64(next - 1<<20))
		dst = append(dst, Prediction{ID: next, Prob: 0.5})
	}
	return dst
}

// TestPlanAllocCeiling holds the speculative paths a hit can set off to
// the allocations they make today. Each hit plans new ids (freshIDs)
// over a lending origin. A shed: the one worker is held and the one-job
// queue full, so each plan is registered and failed (failJob,
// errDropped) — 0. A batch across shards: two ids on two shards go out
// as one job, the second shard's issued count bumped after the push,
// fetched in one lent batch and landed shard by shard. A failed
// prefetch: the origin refuses it and the landing books the error.
// Those two rows count their 200 steps whole (testutil.AllocsInPhase)
// against 50 in all: a step allocates only when Quiesce finds its
// prefetch still out and makes the channel it waits on, which the yield
// in dispatch leaves to the odd scheduler pick (3–23 in all on a
// 2-vCPU guest), while an allocation on the path reads 200 more, which
// a per-step mean of 1 would let through. A join: a request for the
// planned id joins its held flight (awaitJoined) and releases it from
// the EventJoin hook; the landing clones the lent payload for its
// joiner and boxes it, and the next flight replaces the done channel
// the joiner consumed — 3.
func TestPlanAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	for _, tc := range []struct {
		name    string
		origin  *flatLender
		shards  int
		n       int                             // ids a plan names
		queue   int                             // speculative queue depth, when not the default
		quiesce bool                            // wait out each step's prefetch
		join    bool                            // request the planned id too
		ceiling float64                         // allocations a step, the mean over the runs
		phase   uint64                          // if set, the runs' allocations in all, in place of ceiling
		moved   func(before, after Stats) int64 // must reach the runs
	}{
		{"shed", &flatLender{held: make(chan struct{})}, 1, 2, 1, false, false, 0, 0,
			func(b, a Stats) int64 { return a.PrefetchDropped - b.PrefetchDropped }},
		{"batch across shards", &flatLender{}, 4, 2, 0, true, false, 0, 50,
			func(b, a Stats) int64 { return (a.PrefetchIssued - b.PrefetchIssued) / 2 }},
		{"failed prefetch", &flatLender{refuse: true}, 1, 1, 0, true, false, 0, 50,
			func(b, a Stats) int64 { return a.PrefetchErrors - b.PrefetchErrors }},
		{"join", &flatLender{held: make(chan struct{}, 1)}, 1, 1, 0, false, true, 3, 0,
			func(b, a Stats) int64 { return a.Joins - b.Joins }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pred := &freshIDs{n: tc.n}
			opts := []Option{
				WithBandwidth(1e9),
				WithShards(tc.shards),
				WithCacheFactory(func(i, n int) Cache { return NewLRUCache(256) }),
				WithWorkers(1),
				WithMaxPrefetch(tc.n),
				WithPredictor(pred),
				WithPolicy(StaticThreshold(0.1)),
			}
			if tc.queue > 0 {
				opts = append(opts, withQueueDepth(tc.queue))
			}
			if tc.join {
				opts = append(opts, WithEventHook(func(ev Event) {
					if ev.Type == EventJoin {
						tc.origin.held <- struct{}{}
					}
				}))
			}
			eng, err := New(tc.origin, opts...)
			if err != nil {
				t.Fatal(err)
			}
			pred.eng = eng
			defer eng.Close()
			ctx := context.Background()
			buf := make([]byte, 0, 256)
			i := 0
			get := func(id ID) {
				var err error
				if buf, err = eng.GetBytes(ctx, id, buf[:0]); err != nil || len(buf) != 64 {
					t.Fatalf("GetBytes(%d): %d bytes, err %v", id, len(buf), err)
				}
			}
			step := func() {
				get(ID(i % 64))
				if tc.join {
					get(ID(1<<20 + pred.named.Load()))
				}
				if tc.quiesce {
					if err := eng.Quiesce(ctx); err != nil {
						t.Fatal(err)
					}
				}
				i++
			}
			for i < 4*64 {
				step()
			}
			const runs = 200
			before, batches := eng.Stats(), tc.origin.batches.Load()
			if tc.phase > 0 {
				testutil.AllocsInPhase(t, tc.phase, fmt.Sprintf("%d steps", runs), func() {}, func() {
					for k := 0; k < runs; k++ {
						step()
					}
				})
			} else if allocs := testing.AllocsPerRun(runs, step); allocs > tc.ceiling {
				t.Fatalf("a step allocated %v times, ceiling %v", allocs, tc.ceiling)
			}
			after := eng.Stats()
			if hits := after.Hits - before.Hits; hits < runs || tc.moved(before, after) < runs {
				t.Fatalf("each measured step must hit and run the arm: %d hits, %d moved: %+v", hits, tc.moved(before, after), after)
			}
			if tc.shards > 1 && tc.origin.batches.Load()-batches < runs {
				t.Fatalf("%d batches in %d steps", tc.origin.batches.Load()-batches, runs)
			}
		})
	}
}
