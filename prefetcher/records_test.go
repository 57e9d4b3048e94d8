package prefetcher

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/prefetcher/fetch"
	"repro/prefetcher/internal/store"
)

// checkRecords holds a quiesced, not yet closed engine to the books the
// write core keeps (ROADMAP item 6(a), first slice): no fetch is
// registered, every record belongs to a resident, there is one record
// per resident (the caller's caches were empty at New — a prewarmed
// entry has none), the wait-free resident count equals the caches' own,
// every issued prefetch ended used, wasted, errored or still
// resident-unused, every request ended a hit or a miss, a byte store's
// arena and overflow bytes are each within its budget, and the built-in
// access model's table is within its 65 536-row ceiling. The records are
// bounded by the caches, and the table grows only with rows trained by
// a key that came back, never with a scan: nothing the engine keeps
// grows with the key space. The caller must have stopped its demand
// traffic and returned from Quiesce.
func checkRecords(t testing.TB, e *Engine) {
	t.Helper()
	var records, unused, resident int
	for i, sh := range e.shards {
		sh.mu.Lock()
		if n := len(sh.inflight); n != 0 {
			t.Errorf("shard %d: %d fetches still registered after Quiesce", i, n)
		}
		for id, r := range sh.records {
			if !sh.cache.Contains(id) {
				t.Errorf("shard %d: record for %d outlives its resident", i, id)
			}
			if r.unused {
				unused++
			}
		}
		records += len(sh.records)
		resident += sh.cache.Len()
		// The built-in store keeps its payload bytes under its budget,
		// arena and overflow each.
		if bs, ok := sh.cache.(*store.Store); ok {
			if a, amax, o, omax := bs.Footprint(); a > amax || o > omax {
				t.Errorf("shard %d: store holds %d arena bytes (ceiling %d) and %d overflow bytes (ceiling %d)", i, a, amax, o, omax)
			}
		}
		sh.mu.Unlock()
	}
	st := e.Stats()
	if records != resident {
		t.Errorf("%d records for %d residents", records, resident)
	}
	if st.CacheLen != resident {
		t.Errorf("Stats.CacheLen = %d, caches hold %d", st.CacheLen, resident)
	}
	if st.InFlight != 0 {
		t.Errorf("Stats.InFlight = %d after Quiesce", st.InFlight)
	}
	if want := st.PrefetchIssued - st.PrefetchUsed - st.PrefetchWasted - st.PrefetchErrors; int64(unused) != want {
		t.Errorf("%d unused records, but issued %d − used %d − wasted %d − errors %d = %d",
			unused, st.PrefetchIssued, st.PrefetchUsed, st.PrefetchWasted, st.PrefetchErrors, want)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	if m := e.planner.builtin; m != nil {
		if rows := m.Rows(); rows > 65536 {
			t.Errorf("the Markov table holds %d rows, ceiling 65536", rows)
		}
	}
}

// quiesceAndCheck is the tail of a concurrent test whose traffic has
// stopped: wait out the speculative fetches, then audit the books.
func quiesceAndCheck(t testing.TB, e *Engine) {
	t.Helper()
	if err := e.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, e)
}

// TestScanLeavesNothingBehind is the scan-miss shape on the engine
// alone: ids that never repeat — four times the Markov table's ceiling
// of them — through a 64-entry cache on a fetcher that returns at once.
// Every row the model claims belongs to an id it will not see again
// (the few hits are one scanner's request predicting the id a racing
// scanner has just observed and is about to look up), so no row is
// trained and the table never grows past one 8-row window per stripe:
// at the end the books hold 64 residents, 64 records, a 512-row table
// and nothing else.
func TestScanLeavesNothingBehind(t *testing.T) {
	eng, err := New(FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	}),
		WithBandwidth(1e9),
		WithShards(4),
		WithCacheFactory(func(i, n int) Cache { return NewLRUCache(16) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const scanners, each = 4, 65536 // 262 144 ids in all
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := eng.Get(ctx, ID(g*each+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	quiesceAndCheck(t, eng)
	st := eng.Stats()
	if st.Requests != scanners*each || st.CacheLen != 64 {
		t.Fatalf("requests/resident = %d/%d, want %d/64", st.Requests, st.CacheLen, scanners*each)
	}
	if rows := eng.planner.builtin.Rows(); rows != 64*8 {
		t.Fatalf("the Markov table holds %d rows after %d distinct ids, want one 8-row window per stripe (512)", rows, scanners*each)
	}
}

// TestDispatchOwnsNothingAfterPush is the regression test for the read
// of a pooled job after its queue push. Eight goroutines walk a small
// id space whose every request admits four candidates over two-entry
// shard caches, against zero-latency origins with eight workers: a
// worker retires and pools a job, and the next dispatch refills it,
// while the dispatcher that pushed it is still settling its issued
// counters. Reading those ids from the job is a data race (the detector
// reports it at the parent commit) that bumps prefetchIssued on
// whatever shard the overwritten id hashes to and emits
// EventPrefetchIssued for an id never issued — so besides the detector
// the test holds the event log to the books, per id. A queue of depth 1
// puts the shed arm on the same books, and both shedding runs make that
// arm certain before the traffic starts (with eight idle workers a send
// to a depth-1 queue is handed straight to a parked one, and a whole run
// could pass without a shed): their origin holds every call at a gate
// while twelve single-id jobs are dispatched — eight park a worker each,
// one fills the queue, the rest are shed — then the gate opens for good.
func TestDispatchOwnsNothingAfterPush(t *testing.T) {
	batch := func(g <-chan struct{}) fetch.Fetcher { return &gatedBatchBackend{gate: g} }
	for _, tc := range []struct {
		name   string
		origin func(gate <-chan struct{}) fetch.Fetcher // every call waits for gate
		depth  int
	}{
		{"batch", batch, 64},
		{"batch-shedding", batch, 1},
		{"single-shedding", func(g <-chan struct{}) fetch.Fetcher {
			return FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
				<-g
				return Item{ID: id, Size: 1}, nil
			})
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const idSpace = 97
			var mu sync.Mutex
			var issued, settled [idSpace]int
			gate := make(chan struct{})
			eng, err := New(tc.origin(gate),
				WithBandwidth(1e9),
				WithShards(8),
				WithCacheFactory(func(i, n int) Cache { return NewLRUCache(2) }),
				WithPolicy(TopK(4)),
				WithMaxPrefetch(4),
				WithWorkers(8),
				withQueueDepth(tc.depth),
				WithEventHook(func(ev Event) {
					switch ev.Type {
					case EventPrefetchIssued, EventPrefetchDone, EventPrefetchError:
						if ev.ID < 0 || ev.ID >= idSpace {
							t.Errorf("event %v names id %d, which no request could have planned", ev.Type, ev.ID)
							return
						}
						mu.Lock()
						if ev.Type == EventPrefetchIssued {
							issued[ev.ID]++
						} else {
							settled[ev.ID]++
						}
						mu.Unlock()
					}
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if tc.depth == 1 {
				for id := ID(0); id < 12; id++ {
					eng.dispatch(0, []ID{id})
				}
				if shed := eng.Stats().PrefetchDropped; shed < 3 {
					t.Errorf("twelve jobs for eight held workers and a one-slot queue shed %d, want at least 3", shed)
				}
			}
			close(gate)
			gets := 5000 // per goroutine; the parent commit fails five runs in five at this size
			if testing.Short() {
				gets /= 5
			}
			ctx := context.Background()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < gets; i++ {
						if _, err := eng.Get(ctx, ID((g*13+i)%idSpace)); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			quiesceAndCheck(t, eng)
			var total int64
			for id := range issued {
				if issued[id] != settled[id] {
					t.Errorf("id %d: %d issued events, %d done or error events", id, issued[id], settled[id])
				}
				total += int64(issued[id])
			}
			st := eng.Stats()
			if total != st.PrefetchIssued {
				t.Errorf("event log counted %d issued prefetches, Stats %d", total, st.PrefetchIssued)
			}
			if st.PrefetchIssued == 0 || (tc.depth == 1 && st.PrefetchDropped == 0) {
				t.Fatalf("the run must prefetch, and shed when its queue holds one job: %+v", st)
			}
		})
	}
}

// decliningStore is an LRU store of n entries that, once full, declines
// every demand landing of a key not resident — a filtered store's answer
// to a key it has not counted often enough, whatever the key's history.
// (The built-in store admits a key read by an owner and a joiner into
// its window: its sketch has counted the key twice.)
type decliningStore struct {
	*store.Store
	n        int
	declined int
}

func newDecliningStore(n int) *decliningStore { return &decliningStore{Store: store.NewLRU(n), n: n} }

func (s *decliningStore) Land(id ID, v any, speculative bool) bool {
	return !s.declines(id, speculative) && s.Store.Land(id, v, speculative)
}

func (s *decliningStore) LandBytes(id ID, b []byte, speculative bool) bool {
	return !s.declines(id, speculative) && s.Store.LandBytes(id, b, speculative)
}

func (s *decliningStore) declines(id ID, speculative bool) bool {
	if speculative || s.Contains(id) || s.Len() < s.n {
		return false
	}
	s.declined++
	return true
}

// TestDeclinedLandingKeepsTheBooks drives a demand landing that the
// store turns away while a joiner waits on its flight (ROADMAP item
// 6(a)). A full 4-entry store that declines a demand landing of a new
// key holds four keys each read three times; a fresh key is read by its
// owner and one joiner, and its landing is declined. Both readers still
// get the payload — the joiner its own clone of the lent bytes, intact
// after the lender's buffer has been reused — no record is written, the
// resident count matches the store's, and the books balance. With
// TopK(1), both readers observe the key, so the Markov table counts the
// self-transition fresh → fresh; the plan conditioned on the key must
// not offer the key itself, or a worker would fetch again the bytes the
// store just turned away (ROADMAP item 29). On an engine over the
// built-in filtered store that prefetches, a speculative landing of a key
// the sketch has counted once into the full store is never declined, so
// Issued = Used + Wasted + Errors + resident-unused still conserves.
func TestDeclinedLandingKeepsTheBooks(t *testing.T) {
	const n = 4
	ctx := context.Background()
	// newFull returns an engine over the store c makes, of n entries,
	// each holding a key read three times.
	newFull := func(origin Fetcher, p Policy, c func() Cache) (*Engine, func(ID) []byte) {
		eng, err := New(origin, WithBandwidth(1e9), WithShards(1), WithPolicy(p),
			WithCacheFactory(func(int, int) Cache { return c() }))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		get := func(id ID) []byte {
			b, err := eng.GetBytes(ctx, id, nil)
			if err != nil {
				t.Error(err)
			}
			return b
		}
		for pass := 0; pass < 3; pass++ {
			for id := ID(0); id < n; id++ {
				get(id)
			}
		}
		if err := eng.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		return eng, get
	}

	for _, p := range []struct {
		name string
		p    Policy
	}{{"no prefetching", NoPrefetch()}, {"TopK(1)", TopK(1)}} {
		t.Run(p.name, func(t *testing.T) {
			origin := &flatLender{held: make(chan struct{})}
			st := newDecliningStore(n)
			eng, get := newFull(origin, p.p, func() Cache { return st })
			fresh := ID(1 << 20)
			var wg sync.WaitGroup
			var got [2][]byte
			wg.Add(1)
			go func() { defer wg.Done(); got[0] = get(fresh) }()
			sh := eng.shards[0]
			waiters := func() int {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				if f := sh.inflight[fresh]; f != nil {
					return f.waiters
				}
				return -1
			}
			for waiters() < 0 {
				time.Sleep(time.Millisecond)
			}
			wg.Add(1)
			go func() { defer wg.Done(); got[1] = get(fresh) }()
			for waiters() < 1 {
				time.Sleep(time.Millisecond)
			}
			close(origin.held)
			wg.Wait()
			if err := eng.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}
			sh.mu.Lock()
			_, recorded := sh.records[fresh]
			sh.mu.Unlock()
			s := eng.Stats()
			if st.Contains(fresh) || recorded || st.declined != 1 || s.Joins != 1 || s.PrefetchIssued != 0 {
				t.Fatalf("fresh key: resident %t, record %t, %d declined, %d joins, %d prefetches issued; want false, false, 1, 1, 0",
					st.Contains(fresh), recorded, st.declined, s.Joins, s.PrefetchIssued)
			}
			get(fresh + 1) // the lender's buffer, reused
			for i, b := range got {
				if !bytes.Equal(b, bytes.Repeat([]byte{byte(fresh)}, 64)) {
					t.Fatalf("reader %d of the declined landing holds %v", i, b)
				}
			}
			quiesceAndCheck(t, eng)
		})
	}

	// Teach the model 1 → spec, then read 1 again: of its two
	// candidates 2 is resident, and spec, a key the sketch has counted
	// once, lands speculative into the full store, and stays.
	var st *store.Store
	eng, get := newFull(&flatLender{}, TopK(2), func() Cache { st = store.NewFiltered(n); return st })
	spec := ID(1<<20 + 2)
	get(1)
	get(spec)
	get(1)
	quiesceAndCheck(t, eng)
	if s := eng.Stats(); s.PrefetchIssued != 1 || !st.Contains(spec) || st.Len() != n {
		t.Fatalf("the speculative landing: %d issued, resident %t, %d entries; want 1, true, %d", s.PrefetchIssued, st.Contains(spec), st.Len(), n)
	}
}
