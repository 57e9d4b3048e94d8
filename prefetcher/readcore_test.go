package prefetcher_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/prefetcher"
	"repro/prefetcher/bytestore"
)

// tracePredictor records the observation stream it sees, under a lock
// of its own, and predicts from a script: after observing k it names
// next[k] with probability 1. (An external test
// package — the only place prefetcher and bytestore can meet — cannot
// reach the in-package recordingPredictor, which never predicts anyway.)
type tracePredictor struct {
	mu   sync.Mutex
	obs  []prefetcher.ID
	next map[prefetcher.ID]prefetcher.ID
}

func (p *tracePredictor) Observe(id prefetcher.ID) {
	p.mu.Lock()
	p.obs = append(p.obs, id)
	p.mu.Unlock()
}

func (p *tracePredictor) PredictTopInto(dst []prefetcher.Prediction, k int) []prefetcher.Prediction {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n, ok := p.next[p.obs[len(p.obs)-1]]; ok {
		return append(dst, prefetcher.Prediction{ID: n, Prob: 1})
	}
	return dst
}

func (p *tracePredictor) Name() string { return "trace" }

// TestReadCoreFanout1Equivalence replays one trace — hits, misses, a
// prefetch that is used, a demand request joining a speculative flight,
// a failing key, a non-[]byte payload missed and then hit — through
// each of the five public views at fan-out 1, on NewLRUCache's store,
// on bytestore's and on a plug-in that keeps no bytes, and requires
// them to be indistinguishable to everything the threshold rule feeds
// on: the same Stats (MultiGets/BatchedKeys, which count sessions,
// masked), the same event log, the same predictor observation stream,
// and the same error at every step — except that the byte views answer
// ErrNotBytes where the item views serve the non-[]byte payload. The
// plug-in, read through the boxed fallback, must also keep the books of
// the store it wraps — one hit per read, as on the store read as bytes —
// and log the same Get calls under every view, a byte-view miss counted
// once, as an admission sketch behind Get would count it.
func TestReadCoreFanout1Equivalence(t *testing.T) {
	type view struct {
		name    string
		bytes   bool // a byte view: refuses non-[]byte payloads
		session bool // a session view: counted in Stats.MultiGets
		get     func(ctx context.Context, eng *prefetcher.Engine, id prefetcher.ID) error
	}
	views := []view{
		{"Get", false, false, func(ctx context.Context, eng *prefetcher.Engine, id prefetcher.ID) error {
			_, err := eng.Get(ctx, id)
			return err
		}},
		{"GetMultiInto", false, true, func(ctx context.Context, eng *prefetcher.Engine, id prefetcher.ID) error {
			_, err := eng.GetMultiInto(ctx, []prefetcher.ID{id}, nil)
			return singleton(err)
		}},
		{"GetBytes", true, false, func(ctx context.Context, eng *prefetcher.Engine, id prefetcher.ID) error {
			_, err := eng.GetBytes(ctx, id, nil)
			return err
		}},
		{"GetMultiBytes", true, true, func(ctx context.Context, eng *prefetcher.Engine, id prefetcher.ID) error {
			_, _, err := eng.GetMultiBytes(ctx, []prefetcher.ID{id}, nil, nil)
			return singleton(err)
		}},
		{"GetBytesLen", true, false, func(ctx context.Context, eng *prefetcher.Engine, id prefetcher.ID) error {
			_, err := eng.GetBytesLen(ctx, id)
			return err
		}},
	}
	caches := []struct {
		name  string
		books string // a row whose Stats and events this one's must equal
		// opt builds the row's cache; one that logs its reads into reads
		// must log the same stream under every view.
		opt func(t *testing.T, reads *[]prefetcher.ID) prefetcher.Option
	}{
		{"boxed", "", func(*testing.T, *[]prefetcher.ID) prefetcher.Option {
			return prefetcher.WithCache(prefetcher.NewLRUCache(6))
		}},
		{"bytestore", "", func(t *testing.T, _ *[]prefetcher.ID) prefetcher.Option {
			factory, err := bytestore.Factory(bytestore.Config{CapacityBytes: 1 << 16, MaxEntries: 6})
			if err != nil {
				t.Fatal(err)
			}
			return prefetcher.WithCacheFactory(factory)
		}},
		{"plug-in keeping no bytes", "boxed", func(_ *testing.T, reads *[]prefetcher.ID) prefetcher.Option {
			return prefetcher.WithCache(boxedPlugin{readLog{prefetcher.NewLRUCache(6), reads}})
		}},
	}

	const (
		failing  = prefetcher.ID(66) // the origin refuses it
		notBytes = prefetcher.ID(50) // a string payload
		gated    = prefetcher.ID(11) // its speculative fetch waits to be joined
	)
	errOrigin := errors.New("origin refused")
	// Each step is one request; joins marks the one that must find its
	// id's speculative fetch still in flight, so the step before it is
	// not quiesced.
	trace := []struct {
		id    prefetcher.ID
		joins bool
	}{
		{id: 1}, {id: 2}, {id: 1}, {id: 2}, // misses, then hits
		{id: 20}, {id: 21}, // 20 prefetches 21; the hit on 21 uses it
		{id: 10}, {id: gated, joins: true}, // 10 prefetches 11; the request for 11 joins the flight
		{id: failing},                  // predicts 67, which no view may go on to prefetch
		{id: notBytes}, {id: notBytes}, // missed, then resident
		{id: 3}, {id: 4}, {id: 1}, // past capacity: evictions, 1 misses again
		{id: gated}, {id: 20},
	}

	type outcome struct {
		stats  prefetcher.Stats
		events []string
		obs    []prefetcher.ID
		errs   []error
		reads  []prefetcher.ID // the cache's read log, where it keeps one
	}
	run := func(t *testing.T, v view, mkCache func(*testing.T, *[]prefetcher.ID) prefetcher.Option) outcome {
		t.Helper()
		var out outcome
		cacheOpt := mkCache(t, &out.reads)
		var mu sync.Mutex
		gate := make(chan struct{})
		var open sync.Once
		fetcher := prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
			switch id {
			case failing:
				return prefetcher.Item{}, errOrigin
			case notBytes:
				return prefetcher.Item{ID: id, Size: 3, Data: "not bytes"}, nil
			case gated:
				select {
				case <-gate:
				case <-ctx.Done():
					return prefetcher.Item{}, ctx.Err()
				}
			}
			return prefetcher.Item{ID: id, Size: 2, Data: []byte(fmt.Sprintf("payload-%d", id))}, nil
		})
		pred := &tracePredictor{next: map[prefetcher.ID]prefetcher.ID{20: 21, 10: gated, failing: 67}}
		clock := prefetcher.NewManualClock(time.Unix(0, 0))
		eng, err := prefetcher.New(fetcher,
			cacheOpt,
			prefetcher.WithShards(1),
			prefetcher.WithBandwidth(400),
			prefetcher.WithClock(clock),
			prefetcher.WithPredictor(pred),
			prefetcher.WithWorkers(1),
			prefetcher.WithMaxPrefetch(1),
			prefetcher.WithEventHook(func(ev prefetcher.Event) {
				mu.Lock()
				out.events = append(out.events, fmt.Sprintf("%v(%d)", ev.Type, ev.ID))
				mu.Unlock()
				if ev.Type == prefetcher.EventJoin && ev.ID == gated {
					open.Do(func() { close(gate) }) // the join is established: let the flight land
				}
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ctx := context.Background()
		window := 0 // start of the event log's current quiesced window
		for i, step := range trace {
			out.errs = append(out.errs, v.get(ctx, eng, step.id))
			if next := i + 1; next < len(trace) && trace[next].joins {
				continue
			}
			if err := eng.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}
			// A worker's prefetch-done can overtake the requester's
			// prefetch-issued on the way to the hook, so the log is
			// compared as one multiset per quiesced window.
			mu.Lock()
			sort.Strings(out.events[window:])
			window = len(out.events)
			mu.Unlock()
			clock.AdvanceSeconds(0.05)
		}
		out.stats = eng.Stats()
		want := int64(0)
		if v.session {
			want = int64(len(trace))
		}
		if out.stats.MultiGets != want {
			t.Fatalf("%s: MultiGets = %d, want %d (sessions are counted, singleton views are not)", v.name, out.stats.MultiGets, want)
		}
		out.stats.MultiGets, out.stats.BatchedKeys = 0, 0
		out.obs = append(out.obs, pred.obs...)
		return out
	}

	refs := map[string]outcome{}
	for _, c := range caches {
		t.Run(c.name, func(t *testing.T) {
			var ref outcome
			for i, v := range views {
				got := run(t, v, c.opt)
				for s, step := range trace {
					var want error
					switch {
					case step.id == failing:
						want = errOrigin
					case step.id == notBytes && v.bytes:
						want = prefetcher.ErrNotBytes
					}
					if !errors.Is(got.errs[s], want) {
						t.Fatalf("%s step %d (id %d): err = %v, want %v", v.name, s, step.id, got.errs[s], want)
					}
				}
				if i == 0 {
					ref = got
					st := ref.stats
					if st.Hits == 0 || st.Joins != 1 || st.PrefetchUsed == 0 || st.Backends[0].Errors != 1 || st.Requests != int64(len(trace)) {
						t.Fatalf("trace does not exercise what it claims to: %+v", st)
					}
					continue
				}
				if !reflect.DeepEqual(got.stats, ref.stats) {
					t.Errorf("%s and %s leave different Stats:\n %s: %+v\n %s: %+v", v.name, views[0].name, v.name, got.stats, views[0].name, ref.stats)
				}
				if !reflect.DeepEqual(got.events, ref.events) {
					t.Errorf("%s and %s emit different events:\n %s: %v\n %s: %v", v.name, views[0].name, v.name, got.events, views[0].name, ref.events)
				}
				if !reflect.DeepEqual(got.obs, ref.obs) {
					t.Errorf("%s and %s feed the predictor different streams:\n %s: %v\n %s: %v", v.name, views[0].name, v.name, got.obs, views[0].name, ref.obs)
				}
				if !reflect.DeepEqual(got.reads, ref.reads) {
					t.Errorf("%s and %s read the cache differently:\n %s: %v\n %s: %v", v.name, views[0].name, v.name, got.reads, views[0].name, ref.reads)
				}
			}
			refs[c.name] = ref
			if want, ok := refs[c.books]; ok && (!reflect.DeepEqual(ref.stats, want.stats) || !reflect.DeepEqual(ref.events, want.events)) {
				t.Errorf("%s keeps other books than %s:\n %+v\n %+v", c.name, c.books, ref.stats, want.stats)
			}
		})
	}
}

// singleton reduces a fan-out-1 session's *MultiError to its one key's
// cause, which is what the singleton views return.
func singleton(err error) error {
	var me *prefetcher.MultiError
	if errors.As(err, &me) && len(me.Errors) == 1 {
		return me.Errors[0].Err
	}
	return err
}

// boxedPlugin is a plug-in Cache that keeps no bytes: its byte view
// answers false, so the engine reads every entry boxed, through Get,
// and never lends it a buffer; for an absent id the byte view counts the
// read through Get, as Cache asks. Embedding the interface hides the
// landing bit of the store beneath, which must then admit every Put, as
// NewLRUCache's does.
type boxedPlugin struct{ prefetcher.Cache }

func (p boxedPlugin) GetBytes(id prefetcher.ID, dst []byte) ([]byte, bool) {
	if !p.Contains(id) {
		p.Get(id)
	}
	return dst, false
}

func (p boxedPlugin) BytesLen(id prefetcher.ID) (int, bool) {
	_, ok := p.GetBytes(id, nil)
	return 0, ok
}

// readLog is a Cache that logs every Get, hit or miss — each read an
// admission sketch would count.
type readLog struct {
	prefetcher.Cache
	reads *[]prefetcher.ID
}

func (c readLog) Get(id prefetcher.ID) (any, bool) {
	*c.reads = append(*c.reads, id)
	return c.Cache.Get(id)
}

// landingPlugin is a plug-in Cache with the landing bit: bytestore's
// store under a type of its own, whose Land and LandBytes the engine
// finds by method set.
type landingPlugin struct{ *bytestore.Store }

// evictTap is a Cache that reports each eviction to a second listener
// before the engine's own.
type evictTap struct {
	prefetcher.Cache
	tap func(prefetcher.ID)
}

func (c evictTap) OnEvict(fn func(prefetcher.ID)) {
	c.Cache.OnEvict(func(id prefetcher.ID) {
		c.tap(id)
		fn(id)
	})
}

// TestHPrimeMatchesReferenceEstimator holds Stats.HPrime to the paper's
// Section-4 algorithm as internal/cache transcribes it: a reference
// cache.Estimator is fed every cache event the engine reports — hits,
// landed misses and landed prefetches from the event hook, evictions
// from the cache's own callback — and after every quiesced step of a
// trace that walks each tag transition (a prewarmed entry, plain misses
// and hits, a prefetch that is used, one evicted unused, a demand
// request joining a speculative flight) the engine's ĥ′ must equal the
// reference's nhit/naccess exactly.
func TestHPrimeMatchesReferenceEstimator(t *testing.T) {
	const (
		prewarmed = prefetcher.ID(100)
		gated     = prefetcher.ID(11) // its speculative fetch waits to be joined
	)
	ref := cache.NewEstimator()
	var mu sync.Mutex
	var joined []prefetcher.ID // joins of the current step, settled once it quiesces
	gate := make(chan struct{})
	var open sync.Once
	fetcher := prefetcher.FetcherFunc(func(ctx context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		if id == gated {
			select {
			case <-gate:
			case <-ctx.Done():
				return prefetcher.Item{}, ctx.Err()
			}
		}
		return prefetcher.Item{ID: id, Size: 2}, nil
	})
	lru := evictTap{prefetcher.NewLRUCache(4), func(id prefetcher.ID) { ref.OnEvict(cache.ID(id)) }}
	lru.Put(prewarmed, "warm")
	clock := prefetcher.NewManualClock(time.Unix(0, 0))
	eng, err := prefetcher.New(fetcher,
		prefetcher.WithCache(lru),
		prefetcher.WithShards(1),
		prefetcher.WithPolicy(prefetcher.StaticThreshold(0.5)),
		prefetcher.WithClock(clock),
		prefetcher.WithPredictor(&tracePredictor{next: map[prefetcher.ID]prefetcher.ID{20: 21, 30: 31, 10: gated}}),
		prefetcher.WithWorkers(1),
		prefetcher.WithMaxPrefetch(1),
		prefetcher.WithEventHook(func(ev prefetcher.Event) {
			switch ev.Type {
			case prefetcher.EventHit:
				ref.OnHit(cache.ID(ev.ID))
			case prefetcher.EventMiss:
				ref.OnRemoteAccess(cache.ID(ev.ID), true)
			case prefetcher.EventPrefetchDone:
				ref.OnPrefetch(cache.ID(ev.ID))
			case prefetcher.EventJoin:
				// The joiner is served by the flight it waits on: a hit on
				// the entry that flight lands, which the reference can only
				// see once it has landed.
				mu.Lock()
				joined = append(joined, ev.ID)
				mu.Unlock()
				open.Do(func() { close(gate) })
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Each step is one request; joins marks the one that must find its
	// id's speculative fetch still in flight, so the step before it is
	// not quiesced.
	trace := []struct {
		id    prefetcher.ID
		joins bool
		what  string
	}{
		{id: prewarmed, what: "a prewarmed entry counts as tagged"},
		{id: 1, what: "miss"}, {id: 1, what: "tagged hit"},
		{id: 20, what: "miss; 21 is prefetched"},
		{id: 21, what: "first hit on an untagged entry"}, {id: 21, what: "now tagged"},
		{id: 30, what: "miss; 31 is prefetched"},
		{id: 2, what: "miss"}, {id: 3, what: "miss"}, {id: 4, what: "miss"},
		{id: 5, what: "miss; evicts 31 unused"},
		{id: 31, what: "the wasted prefetch is a miss again"},
		{id: 10, what: "miss; 11's prefetch is held in flight"},
		{id: gated, joins: true, what: "joins the speculative flight"},
		{id: gated, what: "now tagged"},
	}
	ctx := context.Background()
	for i, step := range trace {
		if _, err := eng.Get(ctx, step.id); err != nil {
			t.Fatal(err)
		}
		if next := i + 1; next < len(trace) && trace[next].joins {
			continue
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for _, id := range joined {
			ref.OnHit(cache.ID(id))
		}
		joined = joined[:0]
		mu.Unlock()
		if got, want := eng.Stats().HPrime, ref.EstimateA(); got != want {
			t.Fatalf("step %d (id %d: %s): ĥ′ = %v, reference %d/%d = %v",
				i, step.id, step.what, got, ref.TaggedHits(), ref.Accesses(), want)
		}
		clock.AdvanceSeconds(0.05)
	}
	st := eng.Stats()
	if st.Joins != 1 || st.PrefetchUsed != 2 || st.PrefetchWasted != 1 || st.PrefetchIssued != 3 {
		t.Fatalf("trace does not exercise what it claims to: %+v", st)
	}
	if nh, na := ref.TaggedHits(), ref.Accesses(); nh != 4 || na != int64(len(trace)) {
		t.Fatalf("reference counted %d/%d, want 4/%d", nh, na, len(trace))
	}
}

// TestSlabEvictionStreamsKeepRecords audits the books of an engine on a
// deliberately tiny slab store, where a landing's Put can displace other
// residents through either of the store's two eviction streams — the
// policy's count bound and the arena's segment rotation — both of which
// must reach the record map through onEvict. Eight goroutines churn a
// key space eight times the entry budget through both byte views while
// four candidates per request are prefetched.
func TestSlabEvictionStreamsKeepRecords(t *testing.T) {
	factory, err := bytestore.Factory(bytestore.Config{CapacityBytes: 16 << 10, MaxEntries: 64, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var stores []*bytestore.Store
	fetcher := prefetcher.FetcherFunc(func(_ context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		return prefetcher.Item{ID: id, Size: 1, Data: make([]byte, 64+int(id)%128)}, nil
	})
	eng, err := prefetcher.New(fetcher,
		prefetcher.WithBandwidth(1e9),
		prefetcher.WithShards(4),
		prefetcher.WithCacheFactory(func(i, n int) prefetcher.Cache {
			s := factory(i, n).(*bytestore.Store)
			stores = append(stores, s)
			return s
		}),
		prefetcher.WithPolicy(prefetcher.TopK(4)),
		prefetcher.WithMaxPrefetch(4),
		prefetcher.WithWorkers(2),
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
			var buf []byte
			var ranges []prefetcher.ByteRange
			session := make([]prefetcher.ID, 4)
			for i := 0; i < 500; i++ {
				var err error
				if buf, err = eng.GetBytes(ctx, prefetcher.ID((g*61+i)%500), buf[:0]); err != nil {
					t.Error(err)
					return
				}
				for k := range session {
					session[k] = prefetcher.ID((g*61 + i + k*7) % 500)
				}
				if buf, ranges, err = eng.GetMultiBytes(ctx, session, buf[:0], ranges); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	prefetcher.CheckRecords(t, eng)
	var rotated int64
	for _, s := range stores {
		rotated += s.SlabStats().RotateEvicted
	}
	if st := eng.Stats(); rotated == 0 || st.PrefetchWasted == 0 || st.PrefetchUsed == 0 {
		t.Fatalf("the churn must evict by rotation (%d) as well as by count, and both use and waste prefetches: %+v", rotated, st)
	}
}
