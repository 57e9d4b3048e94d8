package prefetcher

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/predict"
)

// BenchmarkEngineGet drives concurrent demand traffic through engines
// with different shard counts. CI runs it with -benchtime=1x as a smoke
// test so the sharded hot path stays exercised; locally, -benchtime=1s
// with -cpu 1,4,8 shows how sharding trades off against parallelism.
func BenchmarkEngineGet(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchEngineGet(b, shards)
		})
	}
}

func benchEngineGet(b *testing.B, shards int) {
	fetch := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	eng, err := New(fetch,
		WithBandwidth(1e6),
		WithShards(shards),
		WithCacheFactory(func(i, n int) Cache {
			per := 256 / n
			if per < 2 {
				per = 2
			}
			return NewSLRUCache(per, (per+1)/2)
		}),
		WithWorkers(4),
		WithMaxPrefetch(2),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine sequential walks with distinct offsets: enough
		// key overlap for in-flight dedup, enough structure for the
		// Markov predictor to produce candidates.
		off := seq.Add(1) * 257
		i := int64(0)
		for pb.Next() {
			id := ID((off + i) % 2000)
			if i%7 == 0 {
				id = ID(off % 2000) // revisit: exercises the hit path
			}
			if _, err := eng.Get(ctx, id); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	st := eng.Stats()
	if st.Requests == 0 {
		b.Fatal("no traffic recorded")
	}
}

// BenchmarkGetHit measures the cache-hit fast path: every request is
// resident, and every predicted candidate is resident too, so the
// whole Get — pooled prediction buffer, one short critical section,
// atomic counters, estimator/controller folds, dedup'd dispatch — must
// run without allocating. CI asserts the same property as a hard test
// via TestGetHitAllocFree.
func BenchmarkGetHit(b *testing.B) {
	eng, ids := newHitEngine(b)
	defer eng.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Get(ctx, ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetBytesHit is BenchmarkGetHit through the byte view the
// daemon's GET /obj serves from: the same hit plus the payload append
// into a reused buffer.
func BenchmarkGetBytesHit(b *testing.B) {
	eng, ids := newByteHitEngine(b)
	defer eng.Close()
	ctx := context.Background()
	dst := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = eng.GetBytes(ctx, ids[i%len(ids)], dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetBytesLenHit is the length view behind HEAD /obj: the
// same hit with no payload copy at all.
func BenchmarkGetBytesLenHit(b *testing.B) {
	eng, ids := newByteHitEngine(b)
	defer eng.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.GetBytesLen(ctx, ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetMultiHit measures the batched counterpart of
// BenchmarkGetHit: an all-hit fan-out-8 session through GetMultiInto —
// one gather across shards, one linearised observation sequence, one
// speculative plan — with the caller reusing its result buffer. CI
// asserts the 0 allocs/op property as a hard test via
// TestGetMultiAllocFree; this benchmark tracks the per-session cost
// against fan-out × BenchmarkGetHit.
func BenchmarkGetMultiHit(b *testing.B) {
	eng, ids := newHitEngine(b)
	defer eng.Close()
	ctx := context.Background()
	const fanout = 8
	session := make([]ID, fanout)
	dst := make([]Item, 0, fanout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range session {
			session[k] = ids[(i+k)%len(ids)]
		}
		var err error
		dst, err = eng.GetMultiInto(ctx, session, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// newHitEngine builds a single-shard engine whose whole catalog is
// resident (and whose Markov rows predict only resident successors), so
// driving it sequentially exercises the hit path exclusively.
func newHitEngine(tb testing.TB, extra ...Option) (*Engine, []ID) {
	tb.Helper()
	fetch := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	const items = 64
	eng, err := New(fetch, append([]Option{
		WithBandwidth(1e6),
		WithShards(1),
		WithCache(NewLRUCache(4 * items)),
		WithWorkers(1),
		WithMaxPrefetch(2),
	}, extra...)...)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	ids := make([]ID, items)
	for i := range ids {
		ids[i] = ID(i)
	}
	// Two warm passes: the first faults everything in, the second walks
	// the same cycle so every Markov successor is itself resident.
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

// BenchmarkGetMiss measures the demand-miss path in steady state:
// every request misses a small cache (NoPrefetch isolates the miss
// machinery from speculation), so each Get pays flight registration,
// the origin fetch, cache admission and an eviction. The pooled
// flights and recycled cache nodes keep this near allocation-free too.
func BenchmarkGetMiss(b *testing.B) {
	fetch := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	eng, err := New(fetch,
		WithBandwidth(1e6),
		WithShards(1),
		WithCache(NewLRUCache(64)),
		WithPolicy(NoPrefetch()),
		WithWorkers(1),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	// A strided walk over an id space far larger than the cache: every
	// id recurs (so the access model reaches steady state instead of
	// growing forever) but is evicted long before its revisit — every
	// request misses.
	const space = 8192
	missID := func(i int) ID { return ID((i * 97) % space) }
	// Warm the maps, the model and the pools past their growth phase.
	for i := 0; i < 2*space; i++ {
		if _, err := eng.Get(ctx, missID(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Get(ctx, missID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetPrefetching measures a request that actually prefetches —
// dispatch, the worker's fetch, the landing and the first use — which
// BenchmarkGetHit (every candidate resident) and BenchmarkGetMiss
// (NoPrefetch) leave untimed: a 64-id cycle over an 8-entry cache, so
// each request is served by the prefetch the previous one issued and
// issues the next; Quiesce per iteration keeps the two in step (and
// allocates the channel it waits on when the prefetch is still in
// flight: rarely, since dispatch yields to the worker). single runs a
// plain origin, batch a batch-capable one.
func BenchmarkGetPrefetching(b *testing.B) {
	plain := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	for _, bc := range []struct {
		name   string
		origin Fetcher
	}{{"single", plain}, {"batch", &batchBackend{}}} {
		b.Run(bc.name, func(b *testing.B) {
			eng, err := New(bc.origin,
				WithBandwidth(1e6),
				WithShards(1),
				WithCache(NewLRUCache(8)),
				WithPolicy(TopK(2)),
				WithMaxPrefetch(2),
				WithWorkers(1),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			step := func(i int) {
				if _, err := eng.Get(ctx, ID(i%64)); err != nil {
					b.Fatal(err)
				}
				if err := eng.Quiesce(ctx); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 2*64; i++ {
				step(i)
			}
			warm := eng.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			b.StopTimer()
			st := eng.Stats()
			b.ReportMetric(float64(st.PrefetchIssued-warm.PrefetchIssued)/float64(b.N), "issued/req")
			b.ReportMetric(float64(st.PrefetchUsed-warm.PrefetchUsed)/float64(b.N), "used/req")
		})
	}
}

// BenchmarkPredictTop measures the predictor hot path on its own: the
// coupled observe+predict the engine issues per request, appending into
// a reused buffer — the pooled PredictTopInto path.
func BenchmarkPredictTop(b *testing.B) {
	m := predict.NewConcurrentMarkov1()
	const items = 256
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < items; i++ {
			m.Observe(cache.ID(i))
		}
	}
	buf := make([]predict.Prediction, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.ObserveAndPredictTopInto(cache.ID(i%items), 2, buf[:0])
	}
	_ = buf
}
