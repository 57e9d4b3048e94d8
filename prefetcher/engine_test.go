package prefetcher

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// memFetcher is an in-memory origin with per-fetch accounting and an
// optional gate that holds fetches open until released.
type memFetcher struct {
	mu      sync.Mutex
	fetches map[ID]int
	gate    chan struct{} // non-nil: Fetch blocks until closed or ctx done
	fail    map[ID]error
}

func newMemFetcher() *memFetcher {
	return &memFetcher{fetches: make(map[ID]int), fail: make(map[ID]error)}
}

func (m *memFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	m.mu.Lock()
	gate := m.gate
	m.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return Item{}, ctx.Err()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fail[id]; err != nil {
		return Item{}, err
	}
	m.fetches[id]++
	return Item{ID: id, Size: 1, Data: fmt.Sprintf("item-%d", id)}, nil
}

func (m *memFetcher) count(id ID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fetches[id]
}

func TestOptionValidation(t *testing.T) {
	fetcher := newMemFetcher()
	tests := []struct {
		name    string
		fetcher Fetcher
		opts    []Option
		wantErr string
	}{
		{"nil fetcher", nil, nil, "nil fetcher"},
		{"adaptive policy needs bandwidth", fetcher, nil, "requires WithBandwidth"},
		{"negative bandwidth", fetcher, []Option{WithBandwidth(-1)}, "must be positive"},
		{"zero workers", fetcher, []Option{WithBandwidth(50), WithWorkers(0)}, ">= 1"},
		{"negative max prefetch", fetcher, []Option{WithBandwidth(50), WithMaxPrefetch(-1)}, ">= 0"},
		{"zero queue", fetcher, []Option{WithBandwidth(50), WithQueueDepth(0)}, ">= 1"},
		{"nil predictor", fetcher, []Option{WithBandwidth(50), WithPredictor(nil)}, "nil predictor"},
		{"nil cache", fetcher, []Option{WithBandwidth(50), WithCache(nil)}, "nil cache"},
		{"nil clock", fetcher, []Option{WithBandwidth(50), WithClock(nil)}, "nil clock"},
		{"zero policy", fetcher, []Option{WithBandwidth(50), WithPolicy(Policy{})}, "zero Policy"},
		{"negative occupancy", fetcher, []Option{WithBandwidth(50), WithCacheOccupancy(-3)}, "non-negative"},
		{"nil hook", fetcher, []Option{WithBandwidth(50), WithEventHook(nil)}, "nil event hook"},
		{"ok default", fetcher, []Option{WithBandwidth(50)}, ""},
		{"ok static without bandwidth", fetcher, []Option{WithPolicy(StaticThreshold(0.5))}, ""},
		{"ok full", fetcher, []Option{
			WithBandwidth(50), WithWorkers(2), WithMaxPrefetch(3),
			WithCache(NewSLRUCache(64, 32)), WithPredictor(NewMarkovPredictor()),
			WithPolicy(AdaptiveThreshold(ModelB())), WithCacheOccupancy(64),
			WithQueueDepth(8),
			WithClock(NewManualClock(time.Unix(0, 0))),
		}, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(tc.fetcher, tc.opts...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				eng.Close()
				return
			}
			if err == nil {
				eng.Close()
				t.Fatalf("New succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestHitMissAndStats(t *testing.T) {
	fetcher := newMemFetcher()
	clock := NewManualClock(time.Unix(0, 0))
	eng, err := New(fetcher,
		WithBandwidth(50),
		WithClock(clock),
		WithPolicy(NoPrefetch()),
		WithCache(NewLRUCache(8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	// First access misses and demand-fetches.
	it, err := eng.Get(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if it.Data != "item-1" || it.ID != 1 {
		t.Fatalf("got %+v", it)
	}
	if n := fetcher.count(1); n != 1 {
		t.Fatalf("fetches = %d, want 1", n)
	}
	// Second access hits.
	clock.AdvanceSeconds(0.1)
	if _, err := eng.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if n := fetcher.count(1); n != 1 {
		t.Fatalf("hit refetched: fetches = %d, want 1", n)
	}

	st := eng.Stats()
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CacheLen != 1 {
		t.Fatalf("cache len = %d, want 1", st.CacheLen)
	}
	// One hit out of two accesses → ĥ′ = 0.5 under the tagged scheme
	// (no prefetching ran, so ĥ′ equals the true hit ratio).
	if st.HPrime != 0.5 {
		t.Fatalf("ĥ′ = %v, want 0.5", st.HPrime)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", st.HitRatio())
	}
	// New's fetcher is the fabric's one backend.
	if len(st.Backends) != 1 || st.Backends[0].Name != "origin" || st.Backends[0].Demand != 1 {
		t.Fatalf("Stats.Backends = %+v, want the one origin backend with 1 demand fetch", st.Backends)
	}
}

// TestSpeculativePrefetch drives a perfectly predictable cyclic stream
// through a cache too small to hold the cycle, and checks the engine
// prefetches the successor ahead of each demand request.
func TestSpeculativePrefetch(t *testing.T) {
	fetcher := newMemFetcher()
	clock := NewManualClock(time.Unix(0, 0))
	eng, err := New(fetcher,
		WithBandwidth(1e6), // fat link: threshold ≈ 0, everything qualifies
		WithClock(clock),
		// Capacity 2 cannot hold the 3-cycle: without prefetching every
		// access would miss; with it the successor is staged just in time.
		WithCache(NewLRUCache(2)),
		WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	// Cycle 1→2→3→1→… so the Markov predictor becomes certain.
	for i := 0; i < 60; i++ {
		id := ID(1 + i%3)
		clock.AdvanceSeconds(0.05)
		if _, err := eng.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.PrefetchIssued == 0 {
		t.Fatalf("no prefetches issued: %+v", st)
	}
	if st.PrefetchUsed == 0 {
		t.Fatalf("no prefetches used: %+v", st)
	}
	if acc := st.Accuracy(); acc < 0.5 {
		t.Fatalf("accuracy = %v, want >= 0.5 on a deterministic stream", acc)
	}
}

// TestJoinDeterministic forces the join path: the prefetch for item 2
// is held open on a gate while a demand Get(2) arrives.
func TestJoinDeterministic(t *testing.T) {
	fetcher := newMemFetcher()
	eng, err := New(fetcher,
		WithBandwidth(1e6),
		WithCache(NewLRUCache(4)),
		WithWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// Train 1→2, then flush both out of the tiny cache.
	for i := 0; i < 8; i++ {
		eng.Get(ctx, 1)
		eng.Get(ctx, 2)
		eng.Quiesce(ctx)
	}
	for i := 50; i < 60; i++ {
		eng.Get(ctx, ID(i))
	}
	eng.Quiesce(ctx)

	// Gate the origin: the next fetches block.
	gate := make(chan struct{})
	fetcher.mu.Lock()
	fetcher.gate = gate
	fetcher.mu.Unlock()

	// Get(1) blocks on its demand fetch; run it in the background.
	g1 := make(chan error, 1)
	go func() { _, err := eng.Get(ctx, 1); g1 <- err }()
	waitUntil(t, func() bool { return eng.Stats().InFlight >= 1 })

	// Release the gate only for the demand fetch of 1: swap in a fresh
	// gate before unblocking so the follow-up prefetch of 2 blocks.
	gate2 := make(chan struct{})
	fetcher.mu.Lock()
	fetcher.gate = gate2
	fetcher.mu.Unlock()
	close(gate)
	if err := <-g1; err != nil {
		t.Fatal(err)
	}
	// The prefetch of 2 is now queued/blocked on gate2.
	waitUntil(t, func() bool { return eng.Stats().PrefetchIssued >= 1 })

	// Demand Get(2) must join, not refetch.
	g2 := make(chan Item, 1)
	g2err := make(chan error, 1)
	go func() {
		it, err := eng.Get(ctx, 2)
		g2 <- it
		g2err <- err
	}()
	waitUntil(t, func() bool { return eng.Stats().Joins >= 1 })
	before := fetcher.count(2)
	close(gate2) // let the prefetch finish; the joiner consumes it

	it := <-g2
	if err := <-g2err; err != nil {
		t.Fatal(err)
	}
	if it.Data != "item-2" {
		t.Fatalf("joined item = %+v", it)
	}
	if got := fetcher.count(2); got != before+1 {
		t.Fatalf("origin fetches of 2 = %d, want %d (join must not refetch)", got, before+1)
	}
	st := eng.Stats()
	if st.Joins == 0 || st.PrefetchUsed == 0 {
		t.Fatalf("join accounting: %+v", st)
	}
}

// TestHPrimeCountsJoinsOnce holds the Section-4 estimator to one count
// per request when several requests wait on one flight. Each joiner
// counts as a hit on the entry the flight lands: tagged on a demand
// flight, whose item the cache would hold without prefetching too, and
// on a speculative flight untagged for the first joiner, which consumes
// the prefetch, and tagged for the rest. Stats still counts every joiner
// a miss.
func TestHPrimeCountsJoinsOnce(t *testing.T) {
	const (
		key     = ID(2)
		joiners = 4
	)
	for _, tc := range []struct {
		name        string
		speculative bool
		used        int64 // PrefetchUsed: the first joiner consumes a prefetch
		tagged      int64 // joiners that are tagged hits
	}{{"demand", false, 0, joiners}, {"speculative", true, 1, joiners - 1}} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
				if id == key {
					select {
					case <-gate:
					case <-ctx.Done():
						return Item{}, ctx.Err()
					}
				}
				return Item{ID: id, Size: 1}, nil
			})
			opts := []Option{WithBandwidth(1e6), WithCache(NewLRUCache(8)), WithPolicy(NoPrefetch())}
			if tc.speculative {
				opts = append(opts, WithWorkers(1), WithMaxPrefetch(1), WithPolicy(StaticThreshold(0.5)),
					WithPredictor(&fixedPredictor{preds: []Prediction{{ID: key, Prob: 0.9}}}))
			}
			eng, err := New(fetcher, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()

			var first int64 // requests that are not joiners
			if tc.speculative {
				// A miss on 1 issues the prefetch of key, held on the gate.
				if _, err := eng.Get(ctx, 1); err != nil {
					t.Fatal(err)
				}
				waitUntil(t, func() bool { return eng.Stats().InFlight >= 1 })
				first = 1
			}
			n := joiners
			if !tc.speculative {
				n++ // one owns the demand flight, the rest join it
			}
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				go func() { _, err := eng.Get(ctx, key); errs <- err }()
			}
			waitUntil(t, func() bool { return eng.Stats().Joins == joiners })
			close(gate)
			for i := 0; i < n; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}

			st := eng.Stats()
			if st.Requests != first+int64(n) || st.Hits != 0 {
				t.Fatalf("requests %d, hits %d: want %d misses", st.Requests, st.Hits, first+int64(n))
			}
			if want := float64(tc.tagged) / float64(st.Requests); st.HPrime != want {
				t.Fatalf("ĥ′ = %v after %d joins, want %d tagged of %d requests (%v)",
					st.HPrime, st.Joins, tc.tagged, st.Requests, want)
			}
			if st.PrefetchUsed != tc.used {
				t.Fatalf("PrefetchUsed = %d, want %d", st.PrefetchUsed, tc.used)
			}
			// A hit on the landed key is tagged in either case.
			if _, err := eng.Get(ctx, key); err != nil {
				t.Fatal(err)
			}
			if st, want := eng.Stats(), float64(tc.tagged+1)/float64(first+int64(n)+1); st.HPrime != want {
				t.Fatalf("ĥ′ = %v after a tagged hit, want %v", st.HPrime, want)
			}
		})
	}
}

// TestContextCancellation covers a caller abandoning a join mid-flight
// and Close cancelling speculative fetches.
func TestContextCancellation(t *testing.T) {
	fetcher := newMemFetcher()
	gate := make(chan struct{})
	fetcher.gate = gate
	eng, err := New(fetcher,
		WithBandwidth(1e6),
		WithCache(NewLRUCache(4)),
		WithWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}

	// A Get whose own context is already cancelled returns immediately.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Get(cctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// A Get blocked on a gated demand fetch aborts when its context
	// does.
	cctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := eng.Get(cctx2, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}

	// Close cancels the engine context; the gated speculative fetch (if
	// any) and workers exit promptly.
	doneClose := make(chan struct{})
	go func() { eng.Close(); close(doneClose) }()
	select {
	case <-doneClose:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return with a gated origin")
	}
	if _, err := eng.Get(context.Background(), 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Get err = %v, want ErrClosed", err)
	}
	close(gate)
}

// TestPrefetchError confirms a failing speculative fetch is counted and
// does not poison the demand path.
func TestPrefetchError(t *testing.T) {
	fetcher := newMemFetcher()
	fetcher.fail[2] = errors.New("origin down")
	eng, err := New(fetcher,
		WithBandwidth(1e6),
		WithCache(NewLRUCache(8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	for i := 0; i < 6; i++ {
		eng.Get(ctx, 1)
		// Let the speculative fetch of 2 run — and fail — before the
		// origin is repaired for the demand fetch.
		eng.Quiesce(ctx)
		fetcher.mu.Lock()
		delete(fetcher.fail, 2)
		fetcher.mu.Unlock()
		if _, err := eng.Get(ctx, 2); err != nil {
			t.Fatal(err)
		}
		eng.Quiesce(ctx)
		fetcher.mu.Lock()
		fetcher.fail[2] = errors.New("origin down")
		fetcher.mu.Unlock()
		// Push both out of cache so the next round misses again.
		for j := 50; j < 60; j++ {
			eng.Get(ctx, ID(j))
		}
		eng.Quiesce(ctx)
	}
	st := eng.Stats()
	if st.PrefetchErrors == 0 {
		t.Fatalf("expected speculative failures to be counted: %+v", st)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// TestFailedFetchAccounting pins the bugfix for λ̂ divergence: a demand
// fetch that errors must still record the arrival with the controller,
// so the controller's request count and rate estimate track
// Stats.Requests even when the origin is failing.
func TestFailedFetchAccounting(t *testing.T) {
	fetcher := newMemFetcher()
	fetcher.fail[7] = errors.New("origin down")
	clock := NewManualClock(time.Unix(0, 0))
	eng, err := New(fetcher,
		WithBandwidth(50),
		WithClock(clock),
		WithPolicy(NoPrefetch()),
		WithCache(NewLRUCache(8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	// A mix of failing and succeeding requests at a steady 10/s.
	for i := 0; i < 20; i++ {
		clock.AdvanceSeconds(0.1)
		id := ID(7) // permanent origin failure
		if i%2 == 1 {
			id = ID(i) // fresh id, succeeds
		}
		_, err := eng.Get(ctx, id)
		if id == 7 && err == nil {
			t.Fatal("expected origin failure")
		}
		if id != 7 && err != nil {
			t.Fatal(err)
		}
	}

	st := eng.Stats()
	if st.Requests != 20 {
		t.Fatalf("requests = %d, want 20", st.Requests)
	}
	// All 20 arrivals were evenly spaced, so λ̂ must estimate ~10/s; had
	// the failing half been dropped the estimate would sit near 5/s.
	if lam := st.Lambda; lam < 9 || lam > 11 {
		t.Fatalf("λ̂ = %v under 50%% origin failures, want ~10", lam)
	}
}

// TestPrewarmedCacheSize pins the bugfix for hits on entries the engine
// never fetched: a user-supplied cache already holding items must serve
// them with the fetch-path default size 1, not 0, and feed ŝ̄.
func TestPrewarmedCacheSize(t *testing.T) {
	warm := NewLRUCache(8)
	warm.Put(5, "warm-payload")
	fetcher := newMemFetcher()
	clock := NewManualClock(time.Unix(0, 0))
	eng, err := New(fetcher,
		WithBandwidth(50),
		WithClock(clock),
		WithPolicy(NoPrefetch()),
		WithCache(warm),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	clock.AdvanceSeconds(0.1)
	it, err := eng.Get(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if it.Data != "warm-payload" {
		t.Fatalf("item = %+v, want prewarmed payload", it)
	}
	if it.Size != 1 {
		t.Fatalf("prewarmed hit served Size = %v, want fallback 1", it.Size)
	}
	st := eng.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want a pure hit", st)
	}
	if st.MeanSize != 1 {
		t.Fatalf("ŝ̄ = %v, want 1 — prewarmed hits must not starve the size estimate", st.MeanSize)
	}
	if st.CacheLen != 1 {
		t.Fatalf("CacheLen = %d, want 1 (prewarmed resident counted)", st.CacheLen)
	}
	// Repeat hits see the same memoised size.
	clock.AdvanceSeconds(0.1)
	if it, err := eng.Get(ctx, 5); err != nil || it.Size != 1 {
		t.Fatalf("second prewarmed hit = %+v, %v", it, err)
	}
}

// TestShardOptions covers the WithShards/WithCache/WithCacheFactory
// interaction rules and the power-of-two rounding.
func TestShardOptions(t *testing.T) {
	fetcher := newMemFetcher()
	ctx := context.Background()

	// WithShards rounds up to the next power of two.
	eng, err := New(fetcher, WithBandwidth(50), WithShards(3),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(16) }))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Shards; got != 4 {
		t.Fatalf("WithShards(3) → %d shards, want 4", got)
	}
	eng.Close()

	// A single supplied cache pins the engine to one shard.
	eng, err = New(fetcher, WithBandwidth(50), WithCache(NewLRUCache(16)))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Shards; got != 1 {
		t.Fatalf("WithCache → %d shards, want 1", got)
	}
	eng.Close()

	// WithCache + WithShards(>1) is a construction error.
	if _, err := New(fetcher, WithBandwidth(50), WithCache(NewLRUCache(16)), WithShards(4)); err == nil {
		t.Fatal("WithCache+WithShards(4) succeeded, want error")
	}
	// WithCache and WithCacheFactory are mutually exclusive.
	if _, err := New(fetcher, WithBandwidth(50), WithCache(NewLRUCache(16)),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(16) })); err == nil {
		t.Fatal("WithCache+WithCacheFactory succeeded, want error")
	}
	// A factory returning nil is rejected.
	if _, err := New(fetcher, WithBandwidth(50), WithShards(2),
		WithCacheFactory(func(i, n int) Cache { return nil })); err == nil {
		t.Fatal("nil-returning factory succeeded, want error")
	}
	// A factory returning one shared instance for every shard is a data
	// race waiting to happen and is rejected.
	shared := NewLRUCache(16)
	if _, err := New(fetcher, WithBandwidth(50), WithShards(2),
		WithCacheFactory(func(i, n int) Cache { return shared })); err == nil {
		t.Fatal("instance-sharing factory succeeded, want error")
	}
	// WithShards(0) is invalid.
	if _, err := New(fetcher, WithBandwidth(50), WithShards(0)); err == nil {
		t.Fatal("WithShards(0) succeeded, want error")
	}

	// Traffic over a wide key space actually lands on every shard, and
	// aggregate Stats account for all of it.
	eng, err = New(fetcher, WithBandwidth(50), WithShards(4), WithPolicy(NoPrefetch()),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(64) }))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 256
	for i := 0; i < n; i++ {
		if _, err := eng.Get(ctx, ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Requests != n || st.Misses != n {
		t.Fatalf("aggregate stats lost traffic: %+v", st)
	}
	for i, sh := range eng.shards {
		if sh.requests.Load() == 0 {
			t.Fatalf("shard %d received no traffic over %d sequential ids", i, n)
		}
	}
}
