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
)

// TestConcurrentGets floods the engine with demand traffic from many
// goroutines over a shared key space while prefetching runs, then
// closes the engine mid-traffic. Run with -race this exercises every
// lock in the facade and the internal controller/estimator stack.
func TestConcurrentGets(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		if id%97 == 0 {
			return Item{}, errors.New("origin hiccup")
		}
		return Item{ID: id, Size: 1 + float64(id%3), Data: fmt.Sprintf("v%d", id)}, nil
	})
	var events sync.Map // EventType → *counter, exercised concurrently
	eng, err := New(fetcher,
		WithBandwidth(200),
		WithCache(NewSLRUCache(256, 128)),
		WithPredictor(NewMarkovPredictor()),
		WithPolicy(AdaptiveThreshold(ModelB())),
		WithWorkers(8),
		withQueueDepth(32),
		WithMaxPrefetch(3),
		WithEventHook(func(ev Event) {
			v, _ := events.LoadOrStore(ev.Type, new(int))
			_ = v
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	const workers = 12
	const iters = 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Sequential runs with worker-specific offsets: enough
				// overlap for shared in-flight fetches, enough structure
				// for the Markov predictor to fire.
				id := ID(w*50 + i%60)
				cctx := ctx
				if i%17 == 0 {
					var cancel context.CancelFunc
					cctx, cancel = context.WithTimeout(ctx, time.Millisecond)
					defer cancel()
				}
				_, err := eng.Get(cctx, id)
				_ = err // errors (hiccups, timeouts, ErrClosed) are expected
				if i%31 == 0 {
					_ = eng.Stats().Threshold
				}
			}
		}(w)
	}
	wg.Wait()

	st := eng.Stats()
	if st.Requests == 0 || st.Hits == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	if st.HPrime < 0 || st.HPrime > 1 {
		t.Fatalf("ĥ′ = %v out of range", st.HPrime)
	}
	// Hiccups, expired joiners and prefetch errors all behind it, the
	// books must balance (closing over in-flight speculative fetches is
	// TestConcurrentShardedLifecycle's job).
	quiesceAndCheck(t, eng)

	// Close, then confirm the engine refuses further traffic.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Get(ctx, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v", err)
	}
	// Close is idempotent.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSameKey makes every goroutine hammer the same cold key
// so the in-flight dedup path is contended directly.
func TestConcurrentSameKey(t *testing.T) {
	var mu sync.Mutex
	fetches := 0
	gate := make(chan struct{})
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		<-gate
		mu.Lock()
		fetches++
		mu.Unlock()
		return Item{ID: id, Size: 1, Data: "x"}, nil
	})
	eng, err := New(fetcher, WithBandwidth(100), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	const callers = 16
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.Get(ctx, 42)
		}(i)
	}
	// Let the callers pile up on the single in-flight fetch, then open
	// the origin.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	st := eng.Stats()
	// One demand fetch; the other 15 callers joined it.
	mu.Lock()
	got := fetches
	mu.Unlock()
	if got != 1 {
		t.Fatalf("origin fetches = %d, want 1 (joiners must dedup)", got)
	}
	// Every caller but the fetcher either joined the in-flight fetch or
	// (if it started late) hit the freshly-filled cache.
	if st.Joins+st.Hits != callers-1 {
		t.Fatalf("joins=%d hits=%d, want joins+hits=%d", st.Joins, st.Hits, callers-1)
	}
	if st.Joins == 0 {
		t.Fatalf("no caller joined the in-flight fetch: %+v", st)
	}
	quiesceAndCheck(t, eng)
}

// TestConcurrentShardedLifecycle drives demand traffic, Quiesce, Stats
// and Threshold across shard boundaries while the engine is closed
// mid-flight. Under -race this exercises the per-shard mutexes, the
// shared controller's atomics, the estimator's counters, the quiesce
// accounting and the close barrier together.
func TestConcurrentShardedLifecycle(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		if id%89 == 0 {
			return Item{}, errors.New("origin hiccup")
		}
		return Item{ID: id, Size: 1 + float64(id%5), Data: int64(id)}, nil
	})
	eng, err := New(fetcher,
		WithBandwidth(500),
		WithShards(8),
		WithCacheFactory(func(i, n int) Cache { return NewSLRUCache(64, 32) }),
		WithPolicy(AdaptiveThreshold(ModelB())),
		WithWorkers(4),
		withQueueDepth(32),
		WithMaxPrefetch(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Shards; got != 8 {
		t.Fatalf("shards = %d, want 8", got)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	const getters = 10
	const iters = 300
	for w := 0; w < getters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Stride walks that cross shard boundaries on every
				// request, with overlap between goroutines for dedup.
				id := ID((w*37 + i*11) % 500)
				_, err := eng.Get(ctx, id)
				_ = err // hiccups and ErrClosed are expected
				if i%23 == 0 {
					_ = eng.Stats().Threshold
				}
			}
		}(w)
	}
	// Quiescers run concurrently with traffic and the close below.
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qctx, cancel := context.WithTimeout(ctx, time.Millisecond)
				_ = eng.Quiesce(qctx)
				cancel()
			}
		}()
	}
	// Close mid-traffic from yet another goroutine.
	closeErr := make(chan error, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		closeErr <- eng.Close()
	}()
	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}

	if _, err := eng.Get(ctx, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// After close the quiesce accounting must be drained: Quiesce
	// returns immediately.
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Requests == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Fatalf("hits+misses = %d+%d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	if st.HPrime < 0 || st.HPrime > 1 {
		t.Fatalf("ĥ′ = %v out of range", st.HPrime)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight fetches leaked past Close: %+v", st)
	}
}

// TestHitsRacingEvictionsKeepOneRecordPerResident: a shard's resident
// record, which carries the entry's size and its Section-4 tag bit, must
// die with the entry. Eight goroutines hammer a two-entry cache with
// hits that race evictions of the same id (each id is requested a few
// times in a row while the working set of three keeps one key out, then
// the window slides to fresh ids); a hit accounted after the shard lock
// drops must not plant a record for an id that was evicted in between,
// since nothing would ever remove it. quiesceAndCheck holds the books:
// one record per resident, hits + misses = requests.
func TestHitsRacingEvictionsKeepOneRecordPerResident(t *testing.T) {
	fetcher := FetcherFunc(func(ctx context.Context, id ID) (Item, error) {
		return Item{ID: id, Size: 1}, nil
	})
	eng, err := New(fetcher,
		WithBandwidth(1e6),
		WithShards(1),
		WithCache(NewLRUCache(2)),
		WithPolicy(NoPrefetch()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	requests := int64(400_000)
	if raceEnabled || testing.Short() {
		requests /= 5
	}
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1)
				if k > requests {
					return
				}
				if _, err := eng.Get(ctx, ID((k/2)%3+(k/256)*3)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	quiesceAndCheck(t, eng)
}
