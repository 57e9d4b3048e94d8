package fetch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/window"
)

// instantFetcher returns items immediately with the given size.
type instantFetcher struct {
	tripCount
	size  float64
	calls atomic.Int64
}

func (f *instantFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	f.calls.Add(1)
	return Item{ID: id, Size: f.size}, nil
}

// slowFetcher blocks for its delay (or until ctx is cancelled) before
// answering; it records how many invocations saw a cancellation.
type slowFetcher struct {
	tripCount
	delay     time.Duration
	calls     atomic.Int64
	cancelled atomic.Int64
}

func (f *slowFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	f.calls.Add(1)
	select {
	case <-time.After(f.delay):
		// A goroutine descheduled past both deadlines finds both arms
		// ready and select picks at random; the cancellation wins.
		if ctx.Err() == nil {
			return Item{ID: id, Size: 1}, nil
		}
	case <-ctx.Done():
	}
	f.cancelled.Add(1)
	return Item{}, ctx.Err()
}

// failingFetcher always errors.
type failingFetcher struct {
	tripCount
	calls atomic.Int64
}

func (f *failingFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	f.calls.Add(1)
	return Item{}, errors.New("origin down")
}

// batchFetcher implements BatchFetcher and records batch shapes.
type batchFetcher struct {
	instantFetcher
	batches atomic.Int64
	items   atomic.Int64
}

func (f *batchFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	f.trip()
	f.batches.Add(1)
	f.items.Add(int64(len(ids)))
	out := make([]Item, len(ids))
	for i, id := range ids {
		out[i] = Item{ID: id, Size: 1}
	}
	return out, nil
}

// newTestFabric builds a fabric that is closed when the test ends, its
// books audited (see checkBooks) on either side of the Close.
func newTestFabric(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		checkBooks(t, f)
		f.Close()
		checkBooks(t, f)
	})
	return f
}

func TestNewValidation(t *testing.T) {
	good := Backend{Name: "a", Fetcher: &instantFetcher{size: 1}}
	cases := []Config{
		{},
		{Backends: []Backend{{Name: "a"}}},
		{Backends: []Backend{{Fetcher: good.Fetcher}}},
		{Backends: []Backend{good, good}},
		{Backends: []Backend{good}, Hedging: &Hedging{Backoff: -time.Second}},
		{Backends: []Backend{good}, Hedging: &Hedging{MaxAttempts: -1}},
		{Backends: []Backend{{Name: "a", Fetcher: good.Fetcher, Bandwidth: -1}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
}

// gateFetcher holds every id below 100 until release is closed and
// serves the rest at once.
type gateFetcher struct {
	tripCount
	release chan struct{}
}

func (f *gateFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	if id < 100 {
		select {
		case <-f.release:
		case <-ctx.Done():
			return Item{}, ctx.Err()
		}
	}
	return Item{ID: id, Size: 1}, nil
}

// FetchInto lets a gateFetcher sit in a fabric that Lends.
func (f *gateFetcher) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	if _, err := f.Fetch(ctx, id); err != nil {
		return dst, err
	}
	return append(dst, intoPayload(id)...), nil
}

// Routing is shortest expected delay: with k fetches in flight on a
// link of b and none on a link of b/2, the next fetch goes where
// (in-flight + 1)/b is least — the fast link until k reaches 2, where
// (2 + 1)/b passes 1/(b/2); a tie keeps the earlier backend. Route, the
// route order and a demand Fetch agree, and the held fetches leave
// nothing in flight once released.
func TestRoutingIsShortestExpectedDelay(t *testing.T) {
	const b = 2.0
	for k := 0; k <= 3; k++ {
		k := k
		t.Run(fmt.Sprintf("%d in flight", k), func(t *testing.T) {
			fast := &gateFetcher{release: make(chan struct{})}
			slow := &gateFetcher{release: make(chan struct{})}
			f := newTestFabric(t, Config{Backends: []Backend{
				{Name: "fast", Fetcher: fast, Bandwidth: b},
				{Name: "slow", Fetcher: slow, Bandwidth: b / 2},
			}})
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func(id ID) {
					defer wg.Done()
					if _, err := specBatch(f, context.Background(), 0, []ID{id}); err != nil {
						t.Error(err)
					}
				}(ID(i))
			}
			for f.Stats(0)[0].InFlight != int64(k) {
				time.Sleep(100 * time.Microsecond)
			}
			want := 0
			if float64(k+1)/b > 1/(b/2) {
				want = 1
			}
			if got := f.Route(); got != want {
				t.Errorf("Route() = %d, want %d", got, want)
			}
			if order := f.routeOrder(); order[0] != want || order[1] != 1-want {
				t.Errorf("route order %v, want backend %d first", order, want)
			}
			if _, err := f.Fetch(context.Background(), 100); err != nil {
				t.Fatal(err)
			}
			if st := f.Stats(0); st[want].Demand != 1 || st[1-want].Demand != 0 {
				t.Errorf("the demand fetch went to %v, want backend %d", []int64{st[0].Demand, st[1].Demand}, want)
			}
			close(fast.release)
			close(slow.release)
			wg.Wait()
			for i, st := range f.Stats(0) {
				if st.InFlight != 0 {
					t.Errorf("backend %d: %d in flight once every fetch returned", i, st.InFlight)
				}
			}
		})
	}
}

// An unconfigured link weighs the peak of its per-fetch goodput, not
// the smoothed mean its ρ̂′ reads: "busy" is timed alone one fetch in
// four and shares its link with three others otherwise, so its mean
// falls to about 44/s while its peak stays above 85/s, near the 100/s
// that "idle", silent after one fetch (as a link whose calls hang is),
// keeps. With one fetch in flight on "idle", the next goes to "busy":
// 2/100 against 1/85, where the means would keep it on "idle", 2/100
// against 1/44.
func TestWeightIsPeakGoodput(t *testing.T) {
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "idle", Fetcher: &instantFetcher{size: 1}},
		{Name: "busy", Fetcher: &instantFetcher{size: 1}},
	}})
	idle, busy := f.backends[0], f.backends[1]
	idle.est.observe(0.01, 1)
	for i := 0; i < 200; i++ {
		latency := 0.04 // sharing the link with three others
		if i%4 == 0 {
			latency = 0.01 // alone on it
		}
		busy.est.observe(latency, 1)
	}
	if bw := busy.est.bw; bw > 50 {
		t.Fatalf("busy link's smoothed goodput %.1f/s, want it to have fallen below 50", bw)
	}
	if w := busy.weight(); w < 80 || w > 100 {
		t.Fatalf("busy link weighs %.1f, want its peak goodput, 80–100", w)
	}
	if got := f.Route(); got != 0 {
		t.Fatalf("with both links idle Route() = %d, want the idle link, 0", got)
	}
	idle.inflight.Add(1)
	got := f.Route()
	idle.inflight.Add(-1)
	if got != 1 {
		t.Fatalf("with one fetch in flight on the idle link Route() = %d, want the busy link, 1", got)
	}
	configured := newTestFabric(t, Config{Backends: []Backend{{Name: "a", Fetcher: &instantFetcher{size: 1}, Bandwidth: 7}}})
	configured.backends[0].est.observe(0.01, 1)
	if w := configured.backends[0].weight(); w != 7 {
		t.Fatalf("a link configured with Bandwidth 7 weighs %v", w)
	}
}

// clockedFetcher takes rtt seconds of a manual clock a call, so a
// success is a latency sample, and fails every call while down.
type clockedFetcher struct {
	tripCount
	clk   *manualNow
	rtt   float64
	down  atomic.Bool
	calls atomic.Int64
}

func (f *clockedFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	f.calls.Add(1)
	f.clk.Advance(f.rtt)
	if f.down.Load() {
		return Item{}, errors.New("connection refused")
	}
	return Item{ID: id, Size: 1}, nil
}

// A link that fails every call, and fast, holds nothing in flight: on
// load alone its larger b would win it every fetch. Its score divides
// by the share of its late attempts served instead, 0.95ᵏ after k
// failures, so with twice its peer's b it is routed 14 fetches of 100 —
// until 0.95ᵏ/200 falls below 1/100, a tie keeping the earlier backend —
// and Fetch fails over to its peer each time. Once its latest failure is
// a load window old it scores on its load again: the next fetch probes
// it, a failed probe sends it back, and once it serves again it draws
// what its b earns.
func TestFailingLinkLosesItsShare(t *testing.T) {
	clk := &manualNow{}
	dead := &clockedFetcher{clk: clk, rtt: 0.001}
	dead.down.Store(true)
	live := &clockedFetcher{clk: clk, rtt: 0.01}
	f := newTestFabric(t, Config{Now: clk.Now, Backends: []Backend{
		{Name: "dead", Fetcher: dead, Bandwidth: 200},
		{Name: "live", Fetcher: live, Bandwidth: 100},
	}})
	fetch := func() (routed int) {
		routed = f.Route()
		if _, err := f.Fetch(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		return routed
	}
	picks := 0
	for i := 0; i < 100; i++ {
		if fetch() == 0 {
			picks++
		}
	}
	if picks != 14 || dead.calls.Load() != 14 {
		t.Fatalf("the failing link was routed %d fetches of 100 and called %d times, want 14", picks, dead.calls.Load())
	}
	clk.Advance(window.DefaultSpan)
	if fetch() != 0 || dead.calls.Load() != 15 {
		t.Fatalf("a load window after its last failure the failing link was not probed (%d calls)", dead.calls.Load())
	}
	if got := f.Route(); got != 1 {
		t.Fatalf("after a failed probe Route() = %d, want the live link", got)
	}
	dead.down.Store(false)
	clk.Advance(window.DefaultSpan)
	for i := 0; i < 3; i++ {
		if got := fetch(); got != 0 {
			t.Fatalf("fetch %d after the link recovered went to %d, want the recovered link's larger b", i, got)
		}
	}
	if st := f.Stats(clk.Now()); st[1].Retries != 15 {
		t.Errorf("the live link took %d failovers, want 15: the served probe needed none", st[1].Retries)
	}
}

// Sequential fetches over links with no configured b: a link with no b
// takes a fetch while it has none in flight, so both are measured, and
// then the faster, backend 1, draws the rest. Sequential fetches never
// overlap, so without that first fetch backend 1, which loses every
// tie, would never be tried.
func TestUnmeasuredLinksAreProbed(t *testing.T) {
	clk := &manualNow{}
	slow := &clockedFetcher{clk: clk, rtt: 0.1}
	fast := &clockedFetcher{clk: clk, rtt: 0.01}
	f := newTestFabric(t, Config{Now: clk.Now, Backends: []Backend{
		{Name: "slow", Fetcher: slow},
		{Name: "fast", Fetcher: fast},
	}})
	for i := 0; i < 10; i++ {
		if _, err := f.Fetch(context.Background(), ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range f.Stats(clk.Now()) {
		if st.Bandwidth <= 0 {
			t.Fatalf("after 10 sequential fetches backend %d still has no b", i)
		}
	}
	if slow.calls.Load() != 1 || fast.calls.Load() != 9 {
		t.Fatalf("slow served %d fetches and fast %d, want 1 and 9", slow.calls.Load(), fast.calls.Load())
	}
}

func TestFailoverOnError(t *testing.T) {
	bad := &failingFetcher{}
	good := &instantFetcher{size: 1}
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "bad", Fetcher: bad, Bandwidth: 1e9}, // routing prefers the failing link
		{Name: "good", Fetcher: good, Bandwidth: 1e-9},
	}})
	item, err := f.Fetch(context.Background(), 7)
	if err != nil {
		t.Fatalf("Fetch must fail over: %v", err)
	}
	if item.ID != 7 {
		t.Fatalf("item = %+v, want id 7", item)
	}
	st := f.Stats(0)
	if st[0].Errors != 1 || st[1].Retries != 1 {
		t.Fatalf("stats = %+v, want one error on bad and one retry on good", st)
	}
	// Every backend failing surfaces the last error.
	f2 := newTestFabric(t, Config{Backends: []Backend{
		{Name: "b1", Fetcher: &failingFetcher{}},
		{Name: "b2", Fetcher: &failingFetcher{}},
	}})
	if _, err := f2.Fetch(context.Background(), 1); err == nil {
		t.Fatal("Fetch with all backends failing must error")
	}
}

func TestHedgeRacesSecondBackendAndCancelsLoser(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	slow := &slowFetcher{delay: 500 * time.Millisecond}
	fast := &slowFetcher{delay: 1 * time.Millisecond}
	f := newTestFabric(t, Config{
		Hedging: &Hedging{},
		Backends: []Backend{
			{Name: "slow", Fetcher: slow, Bandwidth: 1e9}, // its b pins the primary
			{Name: "fast", Fetcher: fast, Bandwidth: 1e-9},
		},
	})
	hedgeAfter(f, 0, 5*time.Millisecond)
	start := time.Now()
	item, err := f.Fetch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if item.ID != 3 {
		t.Fatalf("item = %+v", item)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("hedged fetch took %v, the hedge should have won long before the slow primary", elapsed)
	}
	st := f.Stats(0)
	if st[1].HedgesLaunched != 1 || st[1].HedgesWon != 1 {
		t.Fatalf("fast backend stats = %+v, want one hedge launched and won", st[1])
	}
	// The slow loser must observe the cancellation promptly.
	deadline := time.Now().Add(2 * time.Second)
	for slow.cancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("loser fetch was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
	if st[0].Errors != 0 {
		t.Fatalf("cancelled loser counted as an error: %+v", st[0])
	}
}

// hedgeAfter gives backend i a p95 latency of d, so a hedged race whose
// primary it is launches its hedge once the primary has run d.
func hedgeAfter(f *Fabric, i int, d time.Duration) { f.backends[i].est.observe(d.Seconds(), 1) }

func TestHedgeDelayDerivedFromP95(t *testing.T) {
	slow := &slowFetcher{delay: 5 * time.Millisecond}
	fast := &slowFetcher{delay: time.Millisecond}
	f := newTestFabric(t, Config{
		Hedging: &Hedging{},
		Backends: []Backend{
			{Name: "slow", Fetcher: slow, Bandwidth: 1e9}, // its b pins the primary
			{Name: "fast", Fetcher: fast, Bandwidth: 1e-9},
		},
	})
	ctx := context.Background()
	// First fetch: no p95 estimate yet, so no hedge can be armed.
	if _, err := f.Fetch(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(0); st[1].HedgesLaunched != 0 {
		t.Fatalf("hedge launched with no p95 estimate: %+v", st[1])
	}
	// Once the primary has a p95 (its one sample, ~5ms), the hedge arms
	// then, and its 1ms backend finishes well before the primary, now
	// slowed to half a second, does.
	slow.delay = 500 * time.Millisecond
	if _, err := f.Fetch(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(0); st[1].HedgesLaunched != 1 || st[1].HedgesWon != 1 {
		t.Fatalf("stats after p95 hedge = %+v", st[1])
	}
}

// flakyFetcher fails its first call, then succeeds; it tracks the
// maximum concurrent invocations it ever saw.
type flakyFetcher struct {
	tripCount
	calls   atomic.Int64
	active  atomic.Int64
	maxSeen atomic.Int64
}

func (f *flakyFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	n := f.active.Add(1)
	defer f.active.Add(-1)
	for {
		max := f.maxSeen.Load()
		if n <= max || f.maxSeen.CompareAndSwap(max, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond) // wide enough for a duplicate to overlap
	if f.calls.Add(1) == 1 {
		return Item{}, errors.New("transient")
	}
	return Item{ID: id, Size: 1}, nil
}

// TestSingleBackendHedgingDegradesToSequentialRetries pins the
// WithHedging contract for one backend: retries, never a concurrent
// duplicate racing the same link.
func TestSingleBackendHedgingDegradesToSequentialRetries(t *testing.T) {
	flaky := &flakyFetcher{}
	f := newTestFabric(t, Config{
		Hedging:  &Hedging{MaxAttempts: 2},
		Backends: []Backend{{Name: "only", Fetcher: flaky}},
	})
	item, err := f.Fetch(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if item.ID != 5 {
		t.Fatalf("item = %+v", item)
	}
	st := f.Stats(0)
	if st[0].Retries != 1 || st[0].HedgesLaunched != 0 {
		t.Fatalf("stats = %+v, want one sequential retry and no hedges", st[0])
	}
	if got := flaky.maxSeen.Load(); got != 1 {
		t.Fatalf("backend saw %d concurrent fetches, want strictly sequential", got)
	}
}

// specBatch is FetchSpeculativeBatch with nothing lent, staging the
// items as the engine's workers do.
func specBatch(f *Fabric, ctx context.Context, backend int, ids []ID) ([]Item, error) {
	out := make([]Item, len(ids))
	if _, err := f.FetchSpeculativeBatch(ctx, backend, ids, out, nil, nil); err != nil {
		return nil, err
	}
	return out, nil
}

func TestFetchSpeculativeBatchCoalesces(t *testing.T) {
	bf := &batchFetcher{}
	single := &instantFetcher{size: 1}
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "batch", Fetcher: bf},
		{Name: "single", Fetcher: single},
	}})
	ctx := context.Background()
	items, err := specBatch(f, ctx, 0, []ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || items[2].ID != 3 {
		t.Fatalf("items = %+v", items)
	}
	if bf.batches.Load() != 1 || bf.items.Load() != 3 {
		t.Fatalf("batch fetcher saw %d calls / %d items, want 1/3", bf.batches.Load(), bf.items.Load())
	}
	if !f.BatchCapable(0) || f.BatchCapable(1) {
		t.Fatal("BatchCapable misreports")
	}
	// A non-batch backend falls back to sequential singles.
	if _, err := specBatch(f, ctx, 1, []ID{4, 5}); err != nil {
		t.Fatal(err)
	}
	if single.calls.Load() != 2 {
		t.Fatalf("single backend saw %d calls, want 2", single.calls.Load())
	}
	st := f.Stats(0)
	if st[0].BatchCalls != 1 || st[0].BatchedItems != 3 || st[0].Speculative != 3 {
		t.Fatalf("batch backend stats = %+v", st[0])
	}
}

// shortBatchFetcher violates the one-item-per-id contract.
type shortBatchFetcher struct{ instantFetcher }

func (f *shortBatchFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	f.trip()
	return []Item{{ID: ids[0], Size: 1}}, nil
}

func TestFetchSpeculativeBatchRejectsShortReply(t *testing.T) {
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "short", Fetcher: &shortBatchFetcher{}},
	}})
	if _, err := specBatch(f, context.Background(), 0, []ID{1, 2}); err == nil {
		t.Fatal("short batch reply must error")
	}
}

// A misordered reply must fail the speculative batch whole, like a short
// one: the engine files items[i] under ids[i], so accepting it would
// cache one id's payload under another.
func TestFetchSpeculativeBatchRejectsMisorderedReply(t *testing.T) {
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "misordered", Fetcher: &misorderedBatchFetcher{}},
	}})
	if items, err := specBatch(f, context.Background(), 0, []ID{101, 102, 103}); err == nil {
		t.Fatalf("misordered batch reply must error, got %+v", items)
	}
	if st := f.Stats(0)[0]; st.Errors != 1 {
		t.Fatalf("Errors = %d, want the violating batch counted once", st.Errors)
	}
}

// manualNow is a hand-advanced time source for gate tests.
type manualNow struct {
	mu  sync.Mutex
	now float64
}

func (m *manualNow) Now() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *manualNow) Advance(s float64) {
	m.mu.Lock()
	m.now += s
	m.mu.Unlock()
}

// Stats reads each backend's p95, which re-sorts the latency ring once
// latRecompute samples have gone by: on a copy it keeps on the stack.
// What a snapshot allocates is the slice it returns.
func TestStatsAllocCeiling(t *testing.T) {
	f := newTestFabric(t, Config{Backends: []Backend{{Name: "origin", Fetcher: &instantFetcher{size: 1}}}})
	est := f.backends[0].est
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < latRecompute; i++ {
			est.observe(0.001*float64(i+1), 1)
		}
		if f.Stats(0)[0].LatencyP95Seconds == 0 {
			t.Fatal("no p95 after a ring of samples")
		}
	})
	if got > 1 {
		t.Fatalf("Stats with a stale p95 allocates %.0f times, ceiling 1 (the snapshot)", got)
	}
}

func TestFetchRespectsCallerContext(t *testing.T) {
	testutil.ExpectNoLeaks(t)
	slow := &slowFetcher{delay: time.Minute}
	f := newTestFabric(t, Config{Backends: []Backend{{Name: "slow", Fetcher: slow}}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := f.Fetch(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Fetch did not honour the caller context promptly")
	}
}

func TestFabricConcurrentUse(t *testing.T) {
	backends := []Backend{
		{Name: "a", Fetcher: &instantFetcher{size: 1}, Bandwidth: 2000},
		{Name: "b", Fetcher: &batchFetcher{}, Bandwidth: 1000},
		{Name: "c", Fetcher: &slowFetcher{delay: 100 * time.Microsecond}},
	}
	f := newTestFabric(t, Config{Backends: backends, Hedging: &Hedging{}})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ID(g*1000 + i)
				switch i % 4 {
				case 0:
					if _, err := f.Fetch(ctx, id); err != nil {
						t.Errorf("Fetch: %v", err)
						return
					}
				case 1:
					if _, err := specBatch(f, ctx, f.Route(), []ID{id}); err != nil {
						t.Errorf("FetchSpeculativeBatch: %v", err)
						return
					}
				case 2:
					if _, err := specBatch(f, ctx, f.Route(), []ID{id, id + 1}); err != nil {
						t.Errorf("FetchSpeculativeBatch: %v", err)
						return
					}
				default:
					_ = f.Stats(0)
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiesced, every attempt is settled — a hedge loser, once it has
	// heard its cancellation — and every backend's in-flight count is 0.
	checkBooks(t, f)
	var total int64
	for i, st := range f.Stats(0) {
		total += st.Demand + st.Speculative
		if st.Rho < 0 || st.Rho > 1 || st.RhoPrime < 0 || st.RhoPrime > 1 {
			t.Fatalf("backend %d utilisation out of range: %+v", i, st)
		}
	}
	if total == 0 {
		t.Fatal("no traffic recorded")
	}
}

// --- demand batch path ---------------------------------------------------

// misorderedBatchFetcher answers batches with the ids reversed,
// violating the request-order half of the FetchBatch contract.
type misorderedBatchFetcher struct{ instantFetcher }

func (f *misorderedBatchFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	f.trip()
	out := make([]Item, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = Item{ID: id, Size: 1}
	}
	return out, nil
}

// pickyBatchFetcher refuses every batch call outright; its singleton
// path works except for the one poisoned id — the shape that exercises
// per-key partial failure through the fallback.
type pickyBatchFetcher struct {
	tripCount
	bad   ID
	calls atomic.Int64
}

func (f *pickyBatchFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	f.calls.Add(1)
	if id == f.bad {
		return Item{}, errors.New("poisoned id")
	}
	return Item{ID: id, Size: 1}, nil
}

func (f *pickyBatchFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	f.trip()
	return nil, errors.New("batch refused")
}

func demandBatch(f *Fabric, backend int, ids []ID) ([]Item, []error) {
	out := make([]Item, len(ids))
	errs := make([]error, len(ids))
	f.FetchDemandBatch(context.Background(), backend, ids, out, errs, nil, nil)
	return out, errs
}

func TestFetchDemandBatchCoalesces(t *testing.T) {
	bf := &batchFetcher{}
	f := newTestFabric(t, Config{Backends: []Backend{{Name: "batch", Fetcher: bf}}})
	ids := []ID{7, 3, 9}
	out, errs := demandBatch(f, 0, ids)
	for i, id := range ids {
		if errs[i] != nil || out[i].ID != id {
			t.Fatalf("key %d: item=%+v err=%v", i, out[i], errs[i])
		}
	}
	if bf.batches.Load() != 1 || bf.items.Load() != 3 {
		t.Fatalf("backend saw %d calls / %d items, want 1/3", bf.batches.Load(), bf.items.Load())
	}
	if bf.calls.Load() != 0 {
		t.Fatalf("singleton path saw %d calls, want 0", bf.calls.Load())
	}
	st := f.Stats(0)[0]
	if st.DemandBatchCalls != 1 || st.DemandBatchedItems != 3 || st.Demand != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BatchCalls != 0 || st.Speculative != 0 {
		t.Fatalf("demand batch leaked into speculative counters: %+v", st)
	}
}

func TestFetchDemandBatchSingleKeyAndNoBatchSupport(t *testing.T) {
	plain := &instantFetcher{size: 1}
	bf := &batchFetcher{}
	f := newTestFabric(t, Config{Backends: []Backend{
		{Name: "batch", Fetcher: bf},
		{Name: "plain", Fetcher: plain},
	}})
	// One key never pays the batch machinery.
	if out, errs := demandBatch(f, 0, []ID{42}); errs[0] != nil || out[0].ID != 42 {
		t.Fatalf("single key: %+v %v", out, errs)
	}
	if bf.batches.Load() != 0 {
		t.Fatal("single-key demand batch must not call FetchBatch")
	}
	// A backend without batch support serves key by key.
	// (Each key is routed afresh and may go to the batch backend's
	// singleton path; only the per-key outcome is contractual.)
	ids := []ID{1, 2}
	out, errs := demandBatch(f, 1, ids)
	for i, id := range ids {
		if errs[i] != nil || out[i].ID != id {
			t.Fatalf("key %d: item=%+v err=%v", i, out[i], errs[i])
		}
	}
}

func TestFetchDemandBatchShortReplyFallsBack(t *testing.T) {
	sf := &shortBatchFetcher{}
	f := newTestFabric(t, Config{Backends: []Backend{{Name: "short", Fetcher: sf}}})
	ids := []ID{1, 2, 3}
	out, errs := demandBatch(f, 0, ids)
	for i, id := range ids {
		if errs[i] != nil || out[i].ID != id {
			t.Fatalf("key %d must be served by the per-key fallback: item=%+v err=%v", i, out[i], errs[i])
		}
	}
	if sf.calls.Load() != int64(len(ids)) {
		t.Fatalf("fallback made %d singleton fetches, want %d", sf.calls.Load(), len(ids))
	}
}

func TestFetchDemandBatchMisorderedReplyFallsBack(t *testing.T) {
	mf := &misorderedBatchFetcher{}
	f := newTestFabric(t, Config{Backends: []Backend{{Name: "misordered", Fetcher: mf}}})
	ids := []ID{5, 6}
	out, errs := demandBatch(f, 0, ids)
	for i, id := range ids {
		if errs[i] != nil || out[i].ID != id {
			t.Fatalf("key %d: item=%+v err=%v", i, out[i], errs[i])
		}
	}
	if mf.calls.Load() != int64(len(ids)) {
		t.Fatalf("fallback made %d singleton fetches, want %d", mf.calls.Load(), len(ids))
	}
}

func TestFetchDemandBatchPartialFailure(t *testing.T) {
	pf := &pickyBatchFetcher{bad: 2}
	f := newTestFabric(t, Config{Backends: []Backend{{Name: "picky", Fetcher: pf}}})
	ids := []ID{1, 2, 3}
	out, errs := demandBatch(f, 0, ids)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good keys failed: %v %v", errs[0], errs[2])
	}
	if out[0].ID != 1 || out[2].ID != 3 {
		t.Fatalf("good keys misdelivered: %+v", out)
	}
	if errs[1] == nil {
		t.Fatal("poisoned key must keep its own error")
	}
}

func TestFetchDemandBatchClosedAndDeadContext(t *testing.T) {
	bf := &batchFetcher{}
	f := newTestFabric(t, Config{Backends: []Backend{{Name: "batch", Fetcher: bf}}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := make([]Item, 2)
	errs := make([]error, 2)
	// A dead context on the fallback path fails the keys without
	// dispatching them. (The batch path itself hands ctx to the
	// backend, which decides.)
	f.FetchDemandBatch(ctx, 0, []ID{1}, out[:1], errs[:1], nil, nil)
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("dead ctx: err = %v", errs[0])
	}
	f.Close()
	f.FetchDemandBatch(context.Background(), 0, []ID{1, 2}, out, errs, nil, nil)
	for i := range errs {
		if !errors.Is(errs[i], ErrClosed) {
			t.Fatalf("key %d after Close: err = %v", i, errs[i])
		}
	}
}
