package bytestore

import (
	"bytes"
	"container/list"
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/prefetcher"
)

// newSlabHitEngine builds an engine whose cache is a slab Store sized
// so the whole 64-id catalog stays resident, then warms it until
// sequential walks hit exclusively — the slab mirror of the prefetcher
// package's newHitEngine.
func newSlabHitEngine(tb testing.TB) (*prefetcher.Engine, []prefetcher.ID) {
	tb.Helper()
	factory, err := Factory(Config{CapacityBytes: 1 << 20, MaxEntries: 4 * 64})
	if err != nil {
		tb.Fatal(err)
	}
	fetch := prefetcher.FetcherFunc(func(_ context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		return prefetcher.Item{ID: id, Size: 1, Data: val(id, 64+int(id)%64)}, nil
	})
	eng, err := prefetcher.New(fetch,
		prefetcher.WithBandwidth(1e6),
		prefetcher.WithShards(1),
		prefetcher.WithCacheFactory(factory),
		prefetcher.WithWorkers(1),
		prefetcher.WithMaxPrefetch(2),
	)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	ids := make([]prefetcher.ID, 64)
	for i := range ids {
		ids[i] = prefetcher.ID(i)
	}
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			if _, err := eng.Get(ctx, id); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := eng.Quiesce(ctx); err != nil {
		tb.Fatal(err)
	}
	return eng, ids
}

// TestEngineGetBytesRoundTrip pins the engine→bytestore byte path:
// slab-resident hits are copied out through ByteCache with payloads
// intact.
func TestEngineGetBytesRoundTrip(t *testing.T) {
	eng, ids := newSlabHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	dst := make([]byte, 0, 256)
	for _, id := range ids {
		var err error
		dst, err = eng.GetBytes(ctx, id, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		if want := val(id, 64+int(id)%64); !bytes.Equal(dst, want) {
			t.Fatalf("GetBytes(%d) mismatch", id)
		}
		n, err := eng.GetBytesLen(ctx, id)
		if err != nil || n != 64+int(id)%64 {
			t.Fatalf("GetBytesLen(%d) = %d, %v", id, n, err)
		}
	}
	st := eng.Stats()
	if st.Hits == 0 {
		t.Fatal("no hits through the slab byte path")
	}
}

// TestSlabGetBytesAllocFree is the tentpole's allocation gate: a
// slab-backed cache hit through Engine.GetBytes — slab lookup, copy
// into a reused buffer, accounting, planning — allocates nothing.
func TestSlabGetBytesAllocFree(t *testing.T) {
	eng, ids := newSlabHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	dst := make([]byte, 0, 256)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		dst, err = eng.GetBytes(ctx, ids[i%len(ids)], dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("slab-hit GetBytes allocated %v times per call; want 0", allocs)
	}
}

// TestSlabGetMultiBytesAllocFree: an all-hit byte session over the slab
// store with reused buffers allocates nothing.
func TestSlabGetMultiBytesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool Puts by design; pooled steady state is unreachable (CI runs this gate without -race)")
	}
	eng, ids := newSlabHitEngine(t)
	defer eng.Close()
	ctx := context.Background()
	const fanout = 8
	session := make([]prefetcher.ID, fanout)
	buf := make([]byte, 0, 4096)
	ranges := make([]prefetcher.ByteRange, 0, fanout)
	fill := func(base int) {
		for k := range session {
			session[k] = ids[(base+k)%len(ids)]
		}
	}
	for w := 0; w < 2; w++ {
		fill(w)
		var err error
		if buf, ranges, err = eng.GetMultiBytes(ctx, session, buf, ranges); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		fill(i)
		var err error
		buf, ranges, err = eng.GetMultiBytes(ctx, session, buf, ranges)
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("all-hit slab GetMultiBytes allocated %v times per session; want 0", allocs)
	}
}

// TestEngineOversizedPayloadBytePath is the regression test for
// overflow-resident byte hits: a []byte payload larger than a slab
// segment lives in the store's boxed overflow map, and every byte
// entry point — GetBytes, GetBytesLen and GetMultiBytes — must serve
// it as a normal byte hit once cached (pass 1, after the pass-0 miss
// populated the cache), not fail it with ErrNotBytes. Before the fix
// the multi path did exactly that, so a prefetchd /batch of a cached
// object larger than segment_bytes 502'd on every request after the
// first.
func TestEngineOversizedPayloadBytePath(t *testing.T) {
	factory, err := Factory(Config{CapacityBytes: 64 << 10, MaxEntries: 32, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	size := func(id prefetcher.ID) int {
		if id%2 == 0 {
			return 4 << 10 // > segment: boxed overflow
		}
		return 64 // fits the arena
	}
	fetch := prefetcher.FetcherFunc(func(_ context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		return prefetcher.Item{ID: id, Size: 1, Data: val(id, size(id))}, nil
	})
	eng, err := prefetcher.New(fetch,
		prefetcher.WithBandwidth(1e6),
		prefetcher.WithShards(1),
		prefetcher.WithCacheFactory(factory),
		prefetcher.WithWorkers(1),
		prefetcher.WithMaxPrefetch(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	session := []prefetcher.ID{2, 1, 4} // oversized, slab-sized, oversized
	for pass := 0; pass < 2; pass++ {
		buf, ranges, err := eng.GetMultiBytes(ctx, session, nil, nil)
		if err != nil {
			t.Fatalf("pass %d: GetMultiBytes: %v", pass, err)
		}
		for i, id := range session {
			r := ranges[i]
			if r.Off < 0 {
				t.Fatalf("pass %d: id %d failed (range %+v)", pass, id, r)
			}
			if !bytes.Equal(buf[r.Off:r.Off+r.Len], val(id, size(id))) {
				t.Fatalf("pass %d: id %d payload mismatch", pass, id)
			}
		}
		out, err := eng.GetBytes(ctx, 2, nil)
		if err != nil || !bytes.Equal(out, val(2, 4<<10)) {
			t.Fatalf("pass %d: GetBytes oversized = %d bytes, %v", pass, len(out), err)
		}
		n, err := eng.GetBytesLen(ctx, 2)
		if err != nil || n != 4<<10 {
			t.Fatalf("pass %d: GetBytesLen oversized = %d, %v", pass, n, err)
		}
	}
	if st := eng.Stats(); st.Hits == 0 {
		t.Fatalf("no hits recorded across the overflow byte path (stats %+v)", st)
	}
}

// TestConcurrentSlabAccess races byte readers on a deliberately tiny
// slab store so every reader also drives policy evictions and segment
// rotations in other readers' shards. Run under -race this pins the
// per-shard locking discipline (the slab view is only touched under the
// shard lock) and eviction-during-read safety: a payload the engine
// returns must be complete and correct even when its slab entry was
// rotated away concurrently.
func TestConcurrentSlabAccess(t *testing.T) {
	factory, err := Factory(Config{CapacityBytes: 16 << 10, MaxEntries: 64, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fetch := prefetcher.FetcherFunc(func(_ context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		return prefetcher.Item{ID: id, Size: 1, Data: val(id, 64+int(id)%128)}, nil
	})
	eng, err := prefetcher.New(fetch,
		prefetcher.WithBandwidth(1e6),
		prefetcher.WithShards(4),
		prefetcher.WithCacheFactory(factory),
		prefetcher.WithWorkers(2),
		prefetcher.WithMaxPrefetch(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dst := make([]byte, 0, 512)
			session := make([]prefetcher.ID, 4)
			ranges := make([]prefetcher.ByteRange, 0, 4)
			for i := 0; i < 300; i++ {
				// 500 ids over a 64-entry budget: constant churn.
				id := prefetcher.ID((c*61 + i) % 500)
				var err error
				dst, err = eng.GetBytes(ctx, id, dst[:0])
				if err != nil {
					t.Error(err)
					return
				}
				if want := val(id, 64+int(id)%128); !bytes.Equal(dst, want) {
					t.Errorf("torn slab payload for %d", id)
					return
				}
				for k := range session {
					session[k] = prefetcher.ID((c*61 + i + k*7) % 500)
				}
				dst, ranges, err = eng.GetMultiBytes(ctx, session, dst[:0], ranges)
				if err != nil {
					t.Error(err)
					return
				}
				for k, id := range session {
					r := ranges[k]
					if want := val(id, 64+int(id)%128); !bytes.Equal(dst[r.Off:r.Off+r.Len], want) {
						t.Errorf("torn multi slab payload for %d", id)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.CacheLen > 64 {
		t.Fatalf("CacheLen = %d exceeds the 64-entry budget", st.CacheLen)
	}
	// The public side of the books (the record map itself is audited on
	// this same store by prefetcher's TestSlabEvictionStreamsKeepRecords,
	// which can see it).
	if st.InFlight != 0 || st.Hits+st.Misses != st.Requests ||
		st.PrefetchUsed+st.PrefetchWasted+st.PrefetchErrors > st.PrefetchIssued {
		t.Fatalf("books do not balance after Quiesce: %+v", st)
	}
}

// silentPredictor keeps no model: any real one's per-key state would sit
// in the live heap of both fills below and blur the count under test.
type silentPredictor struct{}

func (silentPredictor) Observe(prefetcher.ID) {}
func (silentPredictor) Name() string          { return "none" }
func (silentPredictor) PredictTopInto(dst []prefetcher.Prediction, k int) []prefetcher.Prediction {
	return dst
}

// boxedLRU is a map-and-list LRU that holds every payload by reference
// — a node and a boxed value per entry, as the library's caches did
// before they moved onto the slab: the yardstick for what per-value
// boxing costs the collector.
type boxedLRU struct {
	n       int
	order   *list.List // front = most recently used; values are *boxedEntry
	at      map[prefetcher.ID]*list.Element
	onEvict func(prefetcher.ID)
}

type boxedEntry struct {
	id  prefetcher.ID
	val any
}

func (c *boxedLRU) Get(id prefetcher.ID) (any, bool) {
	e, ok := c.at[id]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*boxedEntry).val, true
}

func (c *boxedLRU) Put(id prefetcher.ID, v any) {
	if e, ok := c.at[id]; ok {
		e.Value.(*boxedEntry).val = v
		c.order.MoveToFront(e)
		return
	}
	if c.order.Len() == c.n {
		victim := c.order.Remove(c.order.Back()).(*boxedEntry).id
		delete(c.at, victim)
		c.onEvict(victim)
	}
	c.at[id] = c.order.PushFront(&boxedEntry{id, v})
}

// The byte view answers false: the engine reads every entry boxed. A
// miss here leaves nothing to count, as Get's does.
func (c *boxedLRU) GetBytes(_ prefetcher.ID, dst []byte) ([]byte, bool) { return dst, false }
func (c *boxedLRU) BytesLen(prefetcher.ID) (int, bool)                  { return 0, false }

func (c *boxedLRU) Contains(id prefetcher.ID) bool    { _, ok := c.at[id]; return ok }
func (c *boxedLRU) Len() int                          { return c.order.Len() }
func (c *boxedLRU) OnEvict(fn func(id prefetcher.ID)) { c.onEvict = fn }

// TestSlabResidencyInvisibleToGC pins what the slab store is for: N
// resident values cost the garbage collector a number of live heap
// objects that does not grow with N, where a boxed cache costs at least
// one per value. Both engines are filled with the same N 1 KiB values
// (Factory's segmented-LRU store, and the test's boxedLRU), with no
// predictor state and no speculative traffic, and the growth in
// HeapObjects across the fill is read after a forced collection.
func TestSlabResidencyInvisibleToGC(t *testing.T) {
	const n, valueBytes = 32768, 1024
	slabFactory, err := Factory(Config{
		CapacityBytes: n * (valueBytes + valueBytes/8 + 64),
		MaxEntries:    n,
	})
	if err != nil {
		t.Fatal(err)
	}
	boxedFactory := func(_, _ int) prefetcher.Cache {
		return &boxedLRU{n: n, order: list.New(), at: map[prefetcher.ID]*list.Element{}}
	}
	// liveGrowth fills a fresh engine, checks all n values are resident
	// (a store that shed them would pass the slab bound vacuously), and
	// returns how many live heap objects the fill left behind.
	liveGrowth := func(factory func(i, n int) prefetcher.Cache) int64 {
		fetch := prefetcher.FetcherFunc(func(_ context.Context, id prefetcher.ID) (prefetcher.Item, error) {
			return prefetcher.Item{ID: id, Size: valueBytes, Data: val(id, valueBytes)}, nil
		})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		eng, err := prefetcher.New(fetch,
			prefetcher.WithBandwidth(1e6),
			prefetcher.WithShards(1), // one shard holds exactly n: no hash imbalance to budget for
			prefetcher.WithCacheFactory(factory),
			prefetcher.WithPolicy(prefetcher.NoPrefetch()),
			prefetcher.WithPredictor(silentPredictor{}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ctx := context.Background()
		dst := make([]byte, 0, valueBytes)
		for pass := 0; pass < 2; pass++ {
			for id := prefetcher.ID(0); id < n; id++ {
				if dst, err = eng.GetBytes(ctx, id, dst[:0]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := eng.Stats(); st.Hits != n {
			t.Fatalf("second pass over %d filled values hit %d times: the fill is not resident", n, st.Hits)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapObjects) - int64(before.HeapObjects)
	}

	slab, boxed := liveGrowth(slabFactory), liveGrowth(boxedFactory)
	t.Logf("live heap objects added by %d resident %d B values: slab %d, boxed %d", n, valueBytes, slab, boxed)
	if slab > n/8 {
		t.Errorf("slab fill added %d live heap objects, want <= %d (n/8): residency is visible to the GC", slab, n/8)
	}
	if boxed <= n {
		t.Errorf("boxed fill added %d live heap objects, want > %d: the comparison no longer measures per-value boxing", boxed, n)
	}
}
