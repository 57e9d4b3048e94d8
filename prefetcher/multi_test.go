package prefetcher

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/prefetcher/fetch"
)

// countingFetcher counts per-id Fetch calls and, when batchOK is set,
// implements BatchFetcher with per-batch call counting. Safe for
// concurrent use.
type countingFetcher struct {
	mu         sync.Mutex
	perID      map[ID]int
	batchCalls int
	batchOK    bool
	// failBatch makes every FetchBatch error (the engine must degrade
	// to per-key fetches); failID fails singleton fetches for one id.
	failBatch bool
	failID    ID
	failErr   error
	delay     time.Duration
}

func newCountingFetcher(batchOK bool) *countingFetcher {
	return &countingFetcher{perID: map[ID]int{}, batchOK: batchOK, failID: -1}
}

func (c *countingFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	if c.delay > 0 {
		select {
		case <-time.After(c.delay):
		case <-ctx.Done():
			return Item{}, ctx.Err()
		}
	}
	c.mu.Lock()
	c.perID[id]++
	c.mu.Unlock()
	if id == c.failID {
		return Item{}, c.failErr
	}
	return Item{ID: id, Size: 2, Data: fmt.Sprintf("item-%d", id)}, nil
}

func (c *countingFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	if !c.batchOK {
		return nil, errors.New("no batch support")
	}
	if c.delay > 0 {
		select {
		case <-time.After(c.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c.mu.Lock()
	c.batchCalls++
	fail := c.failBatch
	if !fail {
		for _, id := range ids {
			c.perID[id]++
		}
	}
	c.mu.Unlock()
	if fail {
		return nil, errors.New("batch refused")
	}
	out := make([]Item, len(ids))
	for i, id := range ids {
		out[i] = Item{ID: id, Size: 2, Data: fmt.Sprintf("item-%d", id)}
	}
	return out, nil
}

func (c *countingFetcher) count(id ID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perID[id]
}

func (c *countingFetcher) batches() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batchCalls
}

func newMultiEngine(t *testing.T, f Fetcher, extra ...Option) *Engine {
	t.Helper()
	opts := append([]Option{
		WithBandwidth(1e6),
		WithShards(4),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(256) }),
		WithWorkers(1),
		WithPolicy(NoPrefetch()),
	}, extra...)
	eng, err := New(f, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestGetMultiBasic covers the session fundamentals: index-aligned
// results across hits, misses and intra-session duplicates, coalesced
// batch dispatch on a batch-capable fetcher, and the session counters.
func TestGetMultiBasic(t *testing.T) {
	cf := newCountingFetcher(true)
	eng := newMultiEngine(t, cf)
	defer eng.Close()
	ctx := context.Background()

	// Warm two keys so the session mixes hits and misses.
	for _, id := range []ID{1, 2} {
		if _, err := eng.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	ids := []ID{1, 10, 2, 11, 12, 10} // two hits, three misses, one duplicate
	items, err := eng.GetMulti(ctx, ids)
	if err != nil {
		t.Fatalf("GetMulti: %v", err)
	}
	if len(items) != len(ids) {
		t.Fatalf("got %d items for %d ids", len(items), len(ids))
	}
	for i, id := range ids {
		if items[i].ID != id {
			t.Fatalf("items[%d].ID = %d, want %d (results must be index-aligned)", i, items[i].ID, id)
		}
		if items[i].Data != fmt.Sprintf("item-%d", id) {
			t.Fatalf("items[%d] has wrong payload %v", i, items[i].Data)
		}
	}
	for _, id := range ids {
		if n := cf.count(id); n > 1 {
			t.Fatalf("id %d fetched %d times; the session must dedup internally", id, n)
		}
	}
	st := eng.Stats()
	if st.MultiGets != 1 {
		t.Fatalf("Stats.MultiGets = %d, want 1", st.MultiGets)
	}
	if st.BatchedKeys != 3 {
		t.Fatalf("Stats.BatchedKeys = %d, want 3 (misses 10,11,12 in one batch)", st.BatchedKeys)
	}
	if st.Requests != 2+int64(len(ids)) {
		t.Fatalf("Stats.Requests = %d, want %d (each session key counts)", st.Requests, 2+len(ids))
	}
	if cf.batches() != 1 {
		t.Fatalf("FetchBatch called %d times, want 1", cf.batches())
	}

	// The whole session is now resident: an all-hit pass.
	items2, err := eng.GetMulti(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	st2 := eng.Stats()
	if st2.Hits-st.Hits != int64(len(ids)) {
		t.Fatalf("all-hit session added %d hits, want %d", st2.Hits-st.Hits, len(ids))
	}
	for i := range items2 {
		if items2[i].ID != ids[i] {
			t.Fatalf("all-hit items misaligned at %d", i)
		}
	}
}

// TestGetMultiEdgeCases: empty sessions, closed engines and dead
// contexts fail fast without touching counters.
func TestGetMultiEdgeCases(t *testing.T) {
	cf := newCountingFetcher(true)
	eng := newMultiEngine(t, cf)
	ctx := context.Background()

	if items, err := eng.GetMulti(ctx, nil); err != nil || items != nil {
		t.Fatalf("empty session: got (%v, %v), want (nil, nil)", items, err)
	}
	dst := make([]Item, 5, 8)
	out, err := eng.GetMultiInto(ctx, nil, dst)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty Into session: got (%v, %v), want truncated dst", out, err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.GetMulti(cctx, []ID{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context: err = %v, want context.Canceled", err)
	}
	eng.Close()
	if _, err := eng.GetMulti(ctx, []ID{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine: err = %v, want ErrClosed", err)
	}
}

// TestGetMultiPartialFailure pins the per-key failure contract on both
// batch shapes: a poisoned key fails alone (its session siblings are
// served), and a refused batch degrades to per-key fallbacks instead
// of failing the session.
func TestGetMultiPartialFailure(t *testing.T) {
	wantErr := errors.New("origin rejected")

	t.Run("poisoned-key", func(t *testing.T) {
		cf := newCountingFetcher(false) // no batch: per-key path
		cf.failID, cf.failErr = 11, wantErr
		eng := newMultiEngine(t, cf)
		defer eng.Close()
		ids := []ID{10, 11, 12}
		items, err := eng.GetMulti(context.Background(), ids)
		var me *MultiError
		if !errors.As(err, &me) {
			t.Fatalf("err = %v, want *MultiError", err)
		}
		if len(me.Errors) != 1 || me.Errors[0].ID != 11 || me.Errors[0].Index != 1 {
			t.Fatalf("MultiError = %+v, want exactly key 11 at index 1", me.Errors)
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("errors.Is cannot reach the per-key cause through %v", err)
		}
		if items[0].ID != 10 || items[2].ID != 12 {
			t.Fatalf("healthy keys not served: %+v", items)
		}
		if items[1] != (Item{}) {
			t.Fatalf("failed key's Item = %+v, want zero", items[1])
		}
	})

	t.Run("batch-refused-falls-back", func(t *testing.T) {
		cf := newCountingFetcher(true)
		cf.failBatch = true
		cf.failID, cf.failErr = 11, wantErr
		eng := newMultiEngine(t, cf)
		defer eng.Close()
		ids := []ID{10, 11, 12}
		items, err := eng.GetMulti(context.Background(), ids)
		var me *MultiError
		if !errors.As(err, &me) {
			t.Fatalf("err = %v, want *MultiError (batch failure must not fail healthy keys)", err)
		}
		if len(me.Errors) != 1 || me.Errors[0].ID != 11 {
			t.Fatalf("MultiError = %+v, want exactly key 11", me.Errors)
		}
		for _, i := range []int{0, 2} {
			if items[i].ID != ids[i] {
				t.Fatalf("fallback did not serve key %d: %+v", ids[i], items[i])
			}
			if n := cf.count(ids[i]); n != 1 {
				t.Fatalf("key %d fetched %d times via fallback, want 1", ids[i], n)
			}
		}
	})
}

// TestGetMultiVsSingletonRace drives GetMulti sessions against
// concurrent singleton Gets over overlapping keys under -race: every
// key must be fetched at most once (sessions and singletons join the
// same flights) and every returned item must be the right one.
func TestGetMultiVsSingletonRace(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	cf := newCountingFetcher(true)
	eng := newMultiEngine(t, cf, WithQueueDepth(256))
	defer eng.Close()
	ctx := context.Background()

	const (
		goroutines = 8
		rounds     = 50
		keys       = 64 // well under the per-shard cache capacity: nothing evicts
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			session := make([]ID, 0, 8)
			dst := make([]Item, 0, 8)
			for r := 0; r < rounds; r++ {
				base := ID((g*13 + r*7) % keys)
				if g%2 == 0 {
					session = session[:0]
					for k := 0; k < 8; k++ {
						session = append(session, (base+ID(k))%keys)
					}
					items, err := eng.GetMultiInto(ctx, session, dst[:0])
					if err != nil {
						t.Errorf("GetMulti: %v", err)
						return
					}
					for i := range items {
						if items[i].ID != session[i] {
							t.Errorf("session item %d: got id %d want %d", i, items[i].ID, session[i])
							return
						}
					}
				} else {
					if it, err := eng.Get(ctx, base); err != nil || it.ID != base {
						t.Errorf("Get(%d) = (%+v, %v)", base, it, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for id := ID(0); id < keys; id++ {
		if n := cf.count(id); n > 1 {
			t.Fatalf("key %d fetched %d times; overlapping sessions/singletons must share one flight", id, n)
		}
	}
	st := eng.Stats()
	if st.Hits+st.Misses != st.Requests {
		t.Fatalf("hits %d + misses %d != requests %d after quiesce", st.Hits, st.Misses, st.Requests)
	}
}

// recordingPredictor is a plain (mutex-path) predictor that records
// the observation stream it sees.
type recordingPredictor struct {
	mu  sync.Mutex
	obs []ID
}

func (p *recordingPredictor) Observe(id ID) {
	p.mu.Lock()
	p.obs = append(p.obs, id)
	p.mu.Unlock()
}
func (p *recordingPredictor) Predict() []Prediction { return nil }
func (p *recordingPredictor) Name() string          { return "recording" }
func (p *recordingPredictor) stream() []ID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ID(nil), p.obs...)
}

// TestGetMultiSequentialEquivalence pins the accounting contract: a
// GetMulti session feeds the predictor exactly the observation
// sequence N singleton Gets would have — same ids, same order, one
// observation per key — so Markov chain conservation holds.
func TestGetMultiSequentialEquivalence(t *testing.T) {
	ids := []ID{5, 9, 5, 12, 3, 9, 7, 1}
	streams := make([][]ID, 2)
	for mode := 0; mode < 2; mode++ {
		rec := &recordingPredictor{}
		cf := newCountingFetcher(true)
		eng := newMultiEngine(t, cf, WithPredictor(rec))
		ctx := context.Background()
		if mode == 0 {
			if _, err := eng.GetMulti(ctx, ids); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, id := range ids {
				if _, err := eng.Get(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
		}
		eng.Close()
		streams[mode] = rec.stream()
	}
	if len(streams[0]) != len(streams[1]) {
		t.Fatalf("GetMulti observed %d ids, %d singleton Gets observed %d",
			len(streams[0]), len(ids), len(streams[1]))
	}
	for i := range streams[0] {
		if streams[0][i] != streams[1][i] {
			t.Fatalf("observation %d: GetMulti saw %d, singleton Gets saw %d", i, streams[0][i], streams[1][i])
		}
	}
}

// TestGetMultiFabricPartialFailure runs the session against a
// multi-backend fabric where one backend refuses batches: the fabric's
// demand-batch fallback must serve every key per-key and the session
// must stay whole.
func TestGetMultiFabricPartialFailure(t *testing.T) {
	var calls atomic.Int64
	mk := func(name string) FetcherFunc {
		return func(ctx context.Context, id ID) (Item, error) {
			calls.Add(1)
			return Item{ID: id, Size: 1, Data: name}, nil
		}
	}
	eng, err := New(nil,
		WithBackends(
			fetch.Backend{Name: "a", Fetcher: mk("a")},
			fetch.Backend{Name: "b", Fetcher: mk("b")},
		),
		WithBandwidth(1e6),
		WithShards(2),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(128) }),
		WithWorkers(1),
		WithPolicy(NoPrefetch()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ids := []ID{1, 2, 3, 4, 5, 6, 7, 8}
	items, err := eng.GetMulti(context.Background(), ids)
	if err != nil {
		t.Fatalf("GetMulti across fabric: %v", err)
	}
	for i := range items {
		if items[i].ID != ids[i] {
			t.Fatalf("fabric session misaligned at %d: %+v", i, items[i])
		}
	}
	if got := calls.Load(); got != int64(len(ids)) {
		t.Fatalf("%d backend fetches for %d keys (no batch support: one each)", got, len(ids))
	}
}

// TestFailedPlanningKeyDoesNotSpeculate pins the planning rule on every
// view: the speculative plan is dispatched iff the key it was predicted
// from was served. The Markov model knows 1→2, id 2 is not resident and
// the origin fails id 1 — a request for 1 that went on to prefetch 2
// would add speculative load to the origin that just failed it.
func TestFailedPlanningKeyDoesNotSpeculate(t *testing.T) {
	errOrigin := errors.New("origin down")
	views := []struct {
		name string
		get  func(ctx context.Context, eng *Engine, id ID) error
	}{
		{"Get", func(ctx context.Context, eng *Engine, id ID) error {
			_, err := eng.Get(ctx, id)
			return err
		}},
		{"GetBytes", func(ctx context.Context, eng *Engine, id ID) error {
			_, err := eng.GetBytes(ctx, id, nil)
			return err
		}},
		{"GetMultiInto", func(ctx context.Context, eng *Engine, id ID) error {
			_, err := eng.GetMultiInto(ctx, []ID{id}, nil)
			return err
		}},
		{"GetMultiBytes", func(ctx context.Context, eng *Engine, id ID) error {
			_, _, err := eng.GetMultiBytes(ctx, []ID{id}, nil, nil)
			return err
		}},
	}
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			var failing atomic.Bool
			fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
				if id == 1 && failing.Load() {
					return Item{}, errOrigin
				}
				return Item{ID: id, Size: 1, Data: bytePayload(id, 8)}, nil
			})
			eng, err := New(fetcher,
				WithBandwidth(1e6),
				WithCache(NewLRUCache(2)),
				WithWorkers(1),
				WithMaxPrefetch(1),
				WithPolicy(StaticThreshold(0)),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			// 4→1→2 trains the model; 5 and 6 then push 1 and 2 out of the
			// two-entry cache (and predict nothing themselves).
			for _, id := range []ID{4, 1, 2, 5, 6} {
				if _, err := eng.Get(ctx, id); err != nil {
					t.Fatal(err)
				}
				if err := eng.Quiesce(ctx); err != nil {
					t.Fatal(err)
				}
			}
			failing.Store(true)
			before := eng.Stats()
			if err := v.get(ctx, eng, 1); !errors.Is(err, errOrigin) {
				t.Fatalf("request for the failing key: err = %v, want the origin's", err)
			}
			if err := eng.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}
			after := eng.Stats()
			if d := after.PrefetchIssued - before.PrefetchIssued; d != 0 {
				t.Fatalf("a request whose planning key failed issued %d speculative fetches, want 0", d)
			}
			if after.Misses != before.Misses+1 {
				t.Fatalf("the failed request is still an arrival: misses %d -> %d", before.Misses, after.Misses)
			}
		})
	}
}
