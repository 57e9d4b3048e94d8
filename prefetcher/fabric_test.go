package prefetcher

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/prefetcher/fetch"
)

// okBackend answers immediately with size-1 items.
type okBackend struct {
	calls atomic.Int64
	size  float64 // every item's; 0 is 1
}

func (b *okBackend) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	b.calls.Add(1)
	return fetch.Item{ID: id, Size: max(b.size, 1)}, nil
}

// downBackend always errors.
type downBackend struct {
	calls atomic.Int64
}

func (b *downBackend) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	b.calls.Add(1)
	return fetch.Item{}, errors.New("backend down")
}

// hangBackend answers at once until armed; armed, it blocks every call
// until its context is cancelled, counting entries and observed
// cancellations.
type hangBackend struct {
	armed     atomic.Bool
	entered   atomic.Int64
	cancelled atomic.Int64
}

func (b *hangBackend) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	if !b.armed.Load() {
		return fetch.Item{ID: id, Size: 1}, nil
	}
	b.entered.Add(1)
	<-ctx.Done()
	b.cancelled.Add(1)
	return fetch.Item{}, ctx.Err()
}

// batchBackend supports FetchBatch and records batch shapes.
type batchBackend struct {
	okBackend
	batches atomic.Int64
	items   atomic.Int64
}

func (b *batchBackend) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	b.batches.Add(1)
	b.items.Add(int64(len(ids)))
	out := make([]fetch.Item, len(ids))
	for i, id := range ids {
		out[i] = fetch.Item{ID: id, Size: 1}
	}
	return out, nil
}

// gatedBatchBackend is a batchBackend whose every call, single or batch,
// first waits for gate to close.
type gatedBatchBackend struct {
	batchBackend
	gate <-chan struct{}
}

func (b *gatedBatchBackend) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	<-b.gate
	return b.batchBackend.Fetch(ctx, id)
}

func (b *gatedBatchBackend) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	<-b.gate
	return b.batchBackend.FetchBatch(ctx, ids)
}

func TestWithBackendsValidation(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	ok := fetch.Backend{Name: "a", Fetcher: &okBackend{}}
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) without backends must error")
	}
	if _, err := New(fetcher, WithBackends(ok)); err == nil {
		t.Fatal("both a fetcher and WithBackends must error")
	}
	if _, err := New(nil, WithBackends()); err == nil {
		t.Fatal("WithBackends() with no backends must error")
	}
	if _, err := New(nil, WithBackends(ok), WithHedging(fetch.Hedging{MaxAttempts: -1})); err == nil {
		t.Fatal("negative hedging must error")
	}
	eng, err := New(nil, WithBackends(ok), WithBandwidth(100))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Get(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if len(st.Backends) != 1 || st.Backends[0].Name != "a" || st.Backends[0].Demand != 1 {
		t.Fatalf("Stats.Backends = %+v", st.Backends)
	}
}

// TestSingleFetcherWrappedAsOriginBackend: New's fetcher is the
// fabric's one backend, "origin", and every fetch goes through it.
func TestSingleFetcherWrappedAsOriginBackend(t *testing.T) {
	var calls atomic.Int64
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		calls.Add(1)
		return Item{ID: id, Size: 1}, nil
	})
	eng, err := New(fetcher, WithBandwidth(100))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Get(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if len(st.Backends) != 1 || st.Backends[0].Name != "origin" {
		t.Fatalf("plain fetcher must be wrapped as the origin backend: %+v", st.Backends)
	}
	if calls.Load() == 0 {
		t.Fatal("wrapped fetcher never called")
	}
}

// TestNewFetcherIsOriginBackendSugar pins New(f, …) as sugar for
// New(nil, WithBackends({"origin", f, b}), …): the same trace through
// both constructions must leave identical Stats — engine counters,
// estimates and the backend's own counters and link estimates.
func TestNewFetcherIsOriginBackendSugar(t *testing.T) {
	const bandwidth = 40
	for _, tc := range []struct {
		name string
		mk   func() Fetcher
		// maxPrefetch is 1 without batching: two single jobs from one plan
		// would let the first one's landing (and its eviction) race the
		// second one's dedup check, and the counts would stop being a
		// function of the trace. A batch dedups the whole plan before its
		// one job is pushed.
		maxPrefetch int
	}{
		{"Fetcher", func() Fetcher { return &okBackend{} }, 1},
		{"BatchFetcher", func() Fetcher { return &batchBackend{} }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(fetcher Fetcher, construct ...Option) Stats {
				t.Helper()
				clock := NewManualClock(time.Unix(0, 0))
				eng, err := New(fetcher, append(construct,
					WithBandwidth(bandwidth),
					WithClock(clock),
					WithCache(NewLRUCache(4)),
					WithWorkers(1),
					WithMaxPrefetch(tc.maxPrefetch),
				)...)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				ctx := context.Background()
				step := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					if err := eng.Quiesce(ctx); err != nil {
						t.Fatal(err)
					}
					clock.AdvanceSeconds(0.05)
				}
				// A branching cycle over more ids than the cache holds
				// (hits, misses, prefetches used and wasted), with a
				// session every ten requests for the demand-batch path.
				for i := 0; i < 120; i++ {
					id := ID(i % 6)
					if i%4 == 3 {
						id += 6
					}
					_, err := eng.Get(ctx, id)
					step(err)
					if i%10 == 9 {
						_, err := eng.GetMulti(ctx, []ID{20, ID(21 + i%3), 22})
						step(err)
					}
				}
				return eng.Stats()
			}
			plain := run(tc.mk())
			named := run(nil, WithBackends(fetch.Backend{Name: "origin", Fetcher: tc.mk(), Bandwidth: bandwidth}))
			if !reflect.DeepEqual(plain, named) {
				t.Fatalf("constructions diverge:\n New(f):        %+v\n WithBackends:  %+v", plain, named)
			}
			if plain.PrefetchUsed == 0 || plain.PrefetchWasted == 0 || plain.Backends[0].Speculative == 0 {
				t.Fatalf("trace too tame to pin anything: %+v", plain)
			}
			if tc.maxPrefetch > 1 && (plain.Backends[0].BatchCalls == 0 || plain.Backends[0].DemandBatchCalls == 0) {
				t.Fatalf("batch paths not exercised: %+v", plain.Backends[0])
			}
		})
	}
}

// TestBackendFailoverUnderLoad drives concurrent demand traffic at a
// fabric whose preferred backend is down: every Get must succeed via
// failover, under -race.
func TestBackendFailoverUnderLoad(t *testing.T) {
	bad := &downBackend{}
	good := &okBackend{}
	eng, err := New(nil,
		WithBandwidth(1e6),
		WithBackends(
			fetch.Backend{Name: "bad", Fetcher: bad, Bandwidth: 1e9}, // rendezvous pins the primary
			fetch.Backend{Name: "good", Fetcher: good, Bandwidth: 1e-9},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := eng.Get(ctx, ID(g*1000+i%50)); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := eng.Stats()
	if len(st.Backends) != 2 {
		t.Fatalf("backends = %+v", st.Backends)
	}
	if st.Backends[0].Errors == 0 {
		t.Fatal("the down backend was never tried (routing weight should prefer it)")
	}
	if st.Backends[1].Retries == 0 {
		t.Fatal("no failover retries recorded on the good backend")
	}
}

// freshPredictor names, with certainty, an id no request asks for — a
// new one on every call — so every request plans a speculative fetch.
type freshPredictor struct{ last atomic.Int64 }

func (p *freshPredictor) Observe(ID)   {}
func (p *freshPredictor) Name() string { return "fresh" }
func (p *freshPredictor) PredictTopInto(dst []Prediction, k int) []Prediction {
	return append(dst, Prediction{ID: ID(1_000_000 + p.last.Add(1)), Prob: 1})
}

// TestCloseCancelsSpeculativeFetchesAcrossBackends checks the lifecycle
// promise on a two-backend fabric with many speculative fetches hung at
// once: Close cancels them promptly, every backend invocation observes
// its context ending, and no goroutine leaks. The backends answer a
// warm-up, so the ids it asks for are resident; armed, they hang, and
// the Gets that follow hit — no demand fetch reaches a backend — and
// each plans a speculative fetch of an id not resident. (Hedging is
// demand-only, and a demand fetch runs under its caller's context, not
// the engine's, so Close has no hedged attempt to cancel.)
func TestCloseCancelsSpeculativeFetchesAcrossBackends(t *testing.T) {
	testutil.ExpectNoLeaks(t)

	hangA := &hangBackend{}
	hangB := &hangBackend{}
	eng, err := New(nil,
		WithBandwidth(1e6),
		WithPolicy(StaticThreshold(0)),
		WithPredictor(&freshPredictor{}),
		WithBackends(
			fetch.Backend{Name: "a", Fetcher: hangA},
			fetch.Backend{Name: "b", Fetcher: hangB},
		),
	)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for id := ID(0); id < 4; id++ {
		if _, err := eng.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	hangA.armed.Store(true)
	hangB.armed.Store(true)
	before := eng.Stats()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := eng.Get(ctx, ID((g+i)%4)); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Wait until fetches are actually hanging inside the backends.
	deadline := time.Now().Add(2 * time.Second)
	for hangA.entered.Load()+hangB.entered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no speculative fetch ever reached a backend")
		}
		time.Sleep(time.Millisecond)
	}
	st := eng.Stats()
	spec := func(st Stats) int64 { return st.Backends[0].Speculative + st.Backends[1].Speculative }
	if st.Misses != before.Misses || spec(st) == spec(before) {
		t.Fatalf("armed: %d demand misses and %d speculative calls; want 0 and at least one",
			st.Misses-before.Misses, spec(st)-spec(before))
	}
	start := time.Now()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v with hung speculative fetches", elapsed)
	}

	// Every backend entry must have observed its cancellation…
	deadline = time.Now().Add(2 * time.Second)
	for {
		entered := hangA.entered.Load() + hangB.entered.Load()
		cancelled := hangA.cancelled.Load() + hangB.cancelled.Load()
		if entered == cancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d backend fetches entered, only %d saw cancellation", entered, cancelled)
		}
		time.Sleep(time.Millisecond)
	}
	// …and the goroutine count must settle back to the ExpectNoLeaks
	// baseline (workers, drainers, hedge goroutines all gone) — checked
	// exactly, with no slack, when the test ends.
}

// heldBackend serves items of its size at once, but holds a fetch of
// any id from held up until the fetch's context ends.
type heldBackend struct {
	okBackend
	held fetch.ID
}

func (b *heldBackend) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	if id >= b.held {
		<-ctx.Done()
		return fetch.Item{}, ctx.Err()
	}
	return b.okBackend.Fetch(ctx, id)
}

// TestPerBackendRhoPrimeDistinct pins the tentpole estimate: each link
// reports its own ρ̂′, reflecting the demand traffic routed to it. Four
// fetches held on heavy (b 4000) send the next 2,000 misses to light
// (b 1000), (4 + 1)/4000 being more than 1/1000; released, heavy takes
// the next 2,000. Its items are twice the size at four times the b, so
// light reads twice heavy's ρ̂′.
func TestPerBackendRhoPrimeDistinct(t *testing.T) {
	const held = 1 << 40
	clock := NewManualClock(time.Unix(0, 0))
	eng, err := New(nil,
		WithBandwidth(1e6),
		WithClock(clock),
		WithPolicy(NoPrefetch()),
		WithBackends(
			fetch.Backend{Name: "heavy", Fetcher: &heldBackend{okBackend: okBackend{size: 2}, held: held}, Bandwidth: 4000},
			fetch.Backend{Name: "light", Fetcher: &okBackend{}, Bandwidth: 1000},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	hctx, release := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id ID) {
			defer wg.Done()
			eng.Get(hctx, id) // fails once released
		}(held + ID(i))
	}
	for eng.Stats().Backends[0].InFlight != 4 {
		time.Sleep(100 * time.Microsecond)
	}
	misses := func(from ID) {
		for id := from; id < from+2000; id++ {
			clock.AdvanceSeconds(0.001)
			if _, err := eng.Get(ctx, id); err != nil { // unique ids: all misses
				t.Fatal(err)
			}
		}
	}
	misses(0)
	release()
	wg.Wait()
	misses(2000)
	st := eng.Stats()
	if len(st.Backends) != 2 {
		t.Fatalf("backends = %+v", st.Backends)
	}
	heavy, light := st.Backends[0], st.Backends[1]
	if heavy.Demand != 2004 || light.Demand != 2000 {
		t.Fatalf("routing by expected delay: heavy=%d light=%d demand fetches, want 2004 and 2000", heavy.Demand, light.Demand)
	}
	if heavy.RhoPrime <= 0 || light.RhoPrime <= 0 {
		t.Fatalf("both links need a live ρ̂′: heavy=%v light=%v", heavy.RhoPrime, light.RhoPrime)
	}
	if r := light.RhoPrime / heavy.RhoPrime; r < 1.9 || r > 2.1 {
		t.Fatalf("ρ̂′ must differ with the load: heavy=%v light=%v, want light twice heavy", heavy.RhoPrime, light.RhoPrime)
	}
}

// TestEngineBatchesAdjacentCandidates checks that several candidates
// admitted for one batch-capable backend travel as one FetchBatch call.
func TestEngineBatchesAdjacentCandidates(t *testing.T) {
	backend := &batchBackend{}
	eng, err := New(nil,
		WithBandwidth(1e6),
		WithPolicy(TopK(2)),
		WithMaxPrefetch(2),
		// A 1-item cache: the trained successor pages are evicted by
		// the time page 1 recurs, so both candidates need fetching.
		WithCache(NewLRUCache(1)),
		WithBackends(fetch.Backend{Name: "batched", Fetcher: backend}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	// 1→2 and 1→3 transitions make two predictions for page 1.
	for _, id := range []ID{1, 2, 1, 3, 1} {
		if _, err := eng.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Backends[0].BatchCalls == 0 {
		t.Fatalf("no batch calls despite a batch-capable backend: %+v", st.Backends[0])
	}
	if backend.items.Load() < 2 {
		t.Fatalf("batched %d items, want >= 2", backend.items.Load())
	}
}

// reversedBatchBackend answers batches with the items in reverse
// order, each carrying its own id as payload.
type reversedBatchBackend struct{}

func (reversedBatchBackend) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	return fetch.Item{ID: id, Size: 1, Data: id}, nil
}

func (reversedBatchBackend) FetchBatch(ctx context.Context, ids []fetch.ID) ([]fetch.Item, error) {
	out := make([]fetch.Item, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = fetch.Item{ID: id, Size: 1, Data: id}
	}
	return out, nil
}

// TestMisorderedSpeculativeBatchCachesNothing: a speculative batch whose
// reply is out of request order must fail whole — filing items[i] under
// ids[i] would serve 103's payload to a later Get(101) as a hit.
func TestMisorderedSpeculativeBatchCachesNothing(t *testing.T) {
	eng, err := New(nil,
		WithBandwidth(1e6),
		WithPolicy(TopK(2)),
		WithMaxPrefetch(2),
		WithCache(NewLRUCache(4)),
		WithBackends(fetch.Backend{Name: "reversed", Fetcher: reversedBatchBackend{}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	get := func(id ID) Item {
		t.Helper()
		item, err := eng.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		return item
	}
	// Learn 100→101 and 100→103, flush all three with four fillers, then
	// revisit 100: both successors are candidates and neither is
	// resident, so they travel as one speculative batch.
	for _, id := range []ID{100, 101, 100, 103, 200, 201, 202, 203, 100} {
		get(id)
	}
	st := eng.Stats()
	if st.Backends[0].BatchCalls != 1 || st.Backends[0].Errors != 1 || st.PrefetchErrors != 2 {
		t.Fatalf("batch calls=%d backend errors=%d prefetch errors=%d, want 1/1/2",
			st.Backends[0].BatchCalls, st.Backends[0].Errors, st.PrefetchErrors)
	}
	if item := get(101); item.Data != fetch.ID(101) {
		t.Fatalf("Get(101) served payload %v", item.Data)
	}
	if after := eng.Stats(); after.Hits != st.Hits {
		t.Fatalf("Get(101) was a hit (%d → %d): the failed batch cached something", st.Hits, after.Hits)
	}
}

// TestFabricEngineLifecycleRace hammers Get/Stats/Quiesce across
// shards while backends hedge, then closes — the -race lifecycle test
// for the fabric path.
func TestFabricEngineLifecycleRace(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	eng, err := New(nil,
		WithBandwidth(1e6),
		WithShards(4),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(64) }),
		WithPolicy(StaticThreshold(0)),
		WithHedging(fetch.Hedging{}),
		WithBackends(
			fetch.Backend{Name: "a", Fetcher: &okBackend{}, Bandwidth: 1e5},
			fetch.Backend{Name: "b", Fetcher: &batchBackend{}, Bandwidth: 1e5},
		),
	)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := ID((g*37 + i) % 200)
				if _, err := eng.Get(ctx, id); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("Get: %v", err)
					return
				}
				if i%50 == 0 {
					_ = eng.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	qctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := eng.Quiesce(qctx); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, eng)
	// A hedge loser settles after its winner returned: allow it a moment.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		var n int64
		for _, b := range eng.Stats().Backends {
			n += b.InFlight
		}
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d attempts in flight at quiesce: %+v", n, eng.Stats().Backends)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent, and closed-engine fetches fail cleanly.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Get(ctx, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v", err)
	}
}

// armedHangBackend serves every id at once until armed; armed, it holds
// a fetch of id hang until the fetch's context ends.
type armedHangBackend struct {
	hang      fetch.ID
	armed     atomic.Bool
	entered   atomic.Int64
	cancelled atomic.Int64
}

func (b *armedHangBackend) Fetch(ctx context.Context, id fetch.ID) (fetch.Item, error) {
	if id == b.hang && b.armed.Load() {
		b.entered.Add(1)
		<-ctx.Done()
		b.cancelled.Add(1)
		return fetch.Item{}, ctx.Err()
	}
	return fetch.Item{ID: id, Size: 1}, nil
}

// TestCloseCancelsSpeculativeFetch hangs one speculative fetch in its
// backend and closes the engine: the workers fetch under the engine's
// own context, which Close cancels, so Close returns promptly, the
// backend sees the cancellation and no goroutine outlives the engine.
func TestCloseCancelsSpeculativeFetch(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	b := &armedHangBackend{hang: 1}
	eng, err := New(b, WithBandwidth(1e6), WithPolicy(StaticThreshold(0)),
		WithShards(1), WithCache(NewLRUCache(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Teach the model 0 → 1 and leave 1 out of the one-slot cache, then
	// arm the backend: the next Get(0) plans a speculative fetch of 1.
	ctx := context.Background()
	for _, id := range []ID{0, 1, 2} {
		if _, err := eng.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	b.armed.Store(true)
	if _, err := eng.Get(ctx, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.entered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the speculative fetch of 1 never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a speculative fetch hung in the backend")
	}
	if b.cancelled.Load() != b.entered.Load() {
		t.Fatalf("%d speculative fetches entered the backend, %d saw their context end", b.entered.Load(), b.cancelled.Load())
	}
}

// TestDispatchOnClosedEngineReleasesShardLocks pins dispatch's
// closed-engine arm: a plan's dispatch racing Close finds the flag set
// under the id's shard lock and must drop that lock before it gives up. Ids
// on two shards are dispatched to a closed engine, one job per id on a
// plain backend and one job for all of them on a batch-capable one;
// afterwards every shard's lock is free and no flight was registered.
func TestDispatchOnClosedEngineReleasesShardLocks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fetcher Fetcher
	}{
		{"Fetcher", &okBackend{}},
		{"BatchFetcher", &batchBackend{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(tc.fetcher, WithBandwidth(1e6), WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			eng.Close()
			ids := []ID{0}
			for id := ID(1); len(ids) < 2; id++ {
				if eng.shardFor(id) != eng.shardFor(ids[0]) {
					ids = append(ids, id)
				}
			}
			eng.dispatch(0, ids)
			for i, sh := range eng.shards {
				if !sh.mu.TryLock() {
					t.Errorf("shard %d: lock still held after dispatch on a closed engine", i)
					continue
				}
				if n := len(sh.inflight); n != 0 {
					t.Errorf("shard %d: %d flights registered on a closed engine", i, n)
				}
				sh.mu.Unlock()
			}
		})
	}
}

// startLog is flatLender recording each speculative fetch — an id
// freshIDs names, from 1<<20 up — as it starts, singly or batched.
type startLog struct {
	flatLender
	started atomic.Int64
}

func (o *startLog) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	if id >= 1<<20 {
		o.started.Add(1)
	}
	return o.flatLender.FetchInto(ctx, id, dst)
}

func (o *startLog) FetchBatchInto(ctx context.Context, ids []ID, dst []byte, lens []int) ([]byte, []int, error) {
	if ids[0] >= 1<<20 {
		o.started.Add(1)
	}
	return o.flatLender.FetchBatchInto(ctx, ids, dst, lens)
}

// TestSpeculativeFetchStartsBeforeDemandReturns: on one P, a hit whose
// plan queues a prefetch returns only after the worker has started that
// prefetch's origin call — dispatch yields the processor once it has
// pushed a job — so the origin sees the speculative request before the
// caller can reply to its client. Without the yield the worker ran only
// once the caller blocked, after GetBytes returned, and no step saw its
// prefetch started. The scheduler takes the global run queue first on
// one pick in 61, handing the caller back before the worker, so the
// test asks for nine steps in ten. A hit whose plan queues nothing does
// not yield: TestGetHitAllocFree and TestGetBytesAllocFree hold such
// hits to 0 allocs and 0 issued.
func TestSpeculativeFetchStartsBeforeDemandReturns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	origin := &startLog{}
	pred := &freshIDs{n: 1}
	eng, err := New(origin,
		WithBandwidth(1e9),
		WithShards(1),
		WithCache(NewLRUCache(256)),
		WithWorkers(1),
		WithMaxPrefetch(1),
		WithPredictor(pred),
		WithPolicy(StaticThreshold(0.1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	buf := make([]byte, 0, 64)
	get := func(id ID) {
		if buf, err = eng.GetBytes(ctx, id, buf[:0]); err != nil || len(buf) != 64 {
			t.Fatalf("GetBytes(%d): %d bytes, err %v", id, len(buf), err)
		}
	}
	for id := ID(0); id < 64; id++ {
		get(id)
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	const steps = 200
	before, early := eng.Stats(), 0
	for i := 0; i < steps; i++ {
		n := origin.started.Load()
		get(ID(i % 64))
		if origin.started.Load() > n {
			early++
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if hits, issued := st.Hits-before.Hits, st.PrefetchIssued-before.PrefetchIssued; hits != steps || issued != steps {
		t.Fatalf("%d steps: %d hits, %d prefetches issued; want one each", steps, hits, issued)
	}
	t.Logf("%d of %d hits returned after their prefetch started", early, steps)
	if early < steps*9/10 {
		t.Fatalf("%d of %d hits returned before their prefetch started; want at most a tenth", steps-early, steps)
	}
}
