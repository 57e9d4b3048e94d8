package fetch

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"testing"
)

// breakerFetcher fails while broken is set; while missing is set it has
// no key but 12, as a directory with one file would.
type breakerFetcher struct {
	tripCount
	broken, missing atomic.Bool
	calls           atomic.Int64
}

var errOrigin = errors.New("origin down")

func (f *breakerFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	f.calls.Add(1)
	if f.broken.Load() {
		return Item{}, errOrigin
	}
	if f.missing.Load() && id != 12 {
		return Item{}, fmt.Errorf("open %d: %w", id, fs.ErrNotExist)
	}
	return Item{ID: id, Size: 1}, nil
}

func newBreakerFabric(t *testing.T, now *manualNow, backends ...Backend) *Fabric {
	t.Helper()
	return newTestFabric(t, Config{
		Backends: backends,
		Breaker:  true,
		Now:      now.Now,
	})
}

// TestBreakerOpensAndRoutesAround trips one of two backends and checks
// that routing and demand traffic steer around it while it is open.
func TestBreakerOpensAndRoutesAround(t *testing.T) {
	now := &manualNow{}
	bad, good := &breakerFetcher{}, &breakerFetcher{}
	bad.broken.Store(true)
	f := newBreakerFabric(t, now,
		Backend{Name: "bad", Fetcher: bad, Bandwidth: 1e9},
		Backend{Name: "good", Fetcher: good, Bandwidth: 1e-9},
	)
	ctx := context.Background()

	// Drive demand until the heavy (preferred) backend trips. Failover
	// means every Fetch still succeeds via the good backend.
	for i := 0; i < 10; i++ {
		if _, err := f.Fetch(ctx, ID(i)); err != nil {
			t.Fatalf("fetch %d failed despite healthy failover backend: %v", i, err)
		}
	}
	st := f.Stats(now.Now())
	if st[0].BreakerState != "open" {
		t.Fatalf("bad backend breaker = %q after %d errors (threshold %d), want open; stats %+v",
			st[0].BreakerState, st[0].Errors, breakerThreshold, st[0])
	}
	if st[0].BreakerOpens == 0 {
		t.Fatal("BreakerOpens not counted")
	}
	if st[1].BreakerState != "closed" {
		t.Fatalf("good backend breaker = %q, want closed", st[1].BreakerState)
	}

	// While open, routing must not send new ids to the tripped backend
	// even though its bandwidth dominates.
	for i := 100; i < 120; i++ {
		if b := f.Route(ID(i)); b != 1 {
			t.Fatalf("Route(%d) = %d while backend 0 is open", i, b)
		}
	}
	badCalls := bad.calls.Load()
	for i := 200; i < 210; i++ {
		if _, err := f.Fetch(ctx, ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := bad.calls.Load(); got != badCalls {
		t.Fatalf("open backend still received %d demand fetches", got-badCalls)
	}
}

// TestBreakerHalfOpenProbe checks the open → half-open → closed cycle:
// after the cooldown exactly one probe goes through, and its success
// re-admits the backend.
func TestBreakerHalfOpenProbe(t *testing.T) {
	now := &manualNow{}
	bad := &breakerFetcher{}
	bad.broken.Store(true)
	f := newBreakerFabric(t, now,
		Backend{Name: "solo", Fetcher: bad, Bandwidth: 100},
	)
	ctx := context.Background()

	for i := 0; i < breakerThreshold; i++ {
		if _, err := f.Fetch(ctx, ID(i)); !errors.Is(err, errOrigin) {
			t.Fatalf("fetch %d: err = %v, want origin error", i, err)
		}
	}
	if st := f.Stats(now.Now()); st[0].BreakerState != "open" {
		t.Fatalf("breaker = %q after threshold failures, want open", st[0].BreakerState)
	}

	// Open and before cooldown: fail fast without touching the origin.
	calls := bad.calls.Load()
	if _, err := f.Fetch(ctx, 10); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if bad.calls.Load() != calls {
		t.Fatal("open breaker let a fetch through before the cooldown")
	}

	// Cooldown elapses while the origin is still down: the probe goes
	// through, fails, and re-opens the breaker.
	now.Advance(1.5)
	if _, err := f.Fetch(ctx, 11); !errors.Is(err, errOrigin) {
		t.Fatalf("probe err = %v, want origin error", err)
	}
	if st := f.Stats(now.Now()); st[0].BreakerState != "open" || st[0].BreakerOpens != 2 {
		t.Fatalf("after failed probe: state %q opens %d, want open/2", st[0].BreakerState, st[0].BreakerOpens)
	}

	// Origin heals; next cooldown's probe succeeds and closes the
	// breaker for good.
	bad.broken.Store(false)
	now.Advance(1.5)
	if _, err := f.Fetch(ctx, 12); err != nil {
		t.Fatalf("healed probe failed: %v", err)
	}
	if st := f.Stats(now.Now()); st[0].BreakerState != "closed" {
		t.Fatalf("after successful probe: state %q, want closed", st[0].BreakerState)
	}
	for i := 20; i < 25; i++ {
		if _, err := f.Fetch(ctx, ID(i)); err != nil {
			t.Fatalf("fetch %d after close: %v", i, err)
		}
	}
}

// TestBreakerMissingKeyIsAnAnswer: an origin that has no such key has
// answered. A not-found error ends the failure run without adding to it,
// so failures either side of one stay below the threshold, and five
// not-found errors in a row leave the breaker closed and a key the
// origin has is then served.
func TestBreakerMissingKeyIsAnAnswer(t *testing.T) {
	now := &manualNow{}
	origin := &breakerFetcher{}
	f := newBreakerFabric(t, now, Backend{Name: "solo", Fetcher: origin, Bandwidth: 100})
	ctx := context.Background()
	get := func(id ID, want error) {
		t.Helper()
		if _, err := f.Fetch(ctx, id); !errors.Is(err, want) {
			t.Fatalf("fetch %d: err = %v, want %v", id, err, want)
		}
	}
	origin.broken.Store(true)
	for i := 0; i < breakerThreshold-1; i++ {
		get(ID(i), errOrigin)
	}
	origin.broken.Store(false)
	origin.missing.Store(true)
	get(20, fs.ErrNotExist)
	origin.broken.Store(true)
	for i := 0; i < breakerThreshold-1; i++ {
		get(ID(30+i), errOrigin)
	}
	origin.broken.Store(false)
	for i := 0; i < breakerThreshold; i++ {
		get(ID(40+i), fs.ErrNotExist)
	}
	if st := f.Stats(now.Now()); st[0].BreakerState != "closed" || st[0].BreakerOpens != 0 {
		t.Fatalf("breaker %q, %d opens after not-found errors, want closed, 0", st[0].BreakerState, st[0].BreakerOpens)
	}
	if item, err := f.Fetch(ctx, 12); err != nil || item.ID != 12 {
		t.Fatalf("fetch 12 = %+v, %v; want it served", item, err)
	}
}

// TestBreakerSpeculativeFailsFast pins the speculative path: a
// candidate routed to a tripped backend is dropped with ErrBreakerOpen
// instead of queueing against the dead origin, and batches behave the
// same.
func TestBreakerSpeculativeFailsFast(t *testing.T) {
	now := &manualNow{}
	bad := &breakerFetcher{}
	bad.broken.Store(true)
	f := newBreakerFabric(t, now,
		Backend{Name: "solo", Fetcher: bad, Bandwidth: 100},
	)
	ctx := context.Background()
	for i := 0; i < breakerThreshold; i++ {
		specBatch(f, ctx, 0, []ID{ID(i)}) //nolint:errcheck // driving the breaker open
	}
	calls := bad.calls.Load()
	if _, err := specBatch(f, ctx, 0, []ID{10}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("speculative err = %v, want ErrBreakerOpen", err)
	}
	if _, err := specBatch(f, ctx, 0, []ID{11, 12}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("speculative batch err = %v, want ErrBreakerOpen", err)
	}
	if bad.calls.Load() != calls {
		t.Fatal("open breaker let speculative fetches through")
	}
}

// TestBreakerHalfOpenSingleProbe checks that concurrent callers racing
// an elapsed cooldown admit exactly one probe.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	now := &manualNow{}
	bad := &breakerFetcher{}
	bad.broken.Store(true)
	f := newBreakerFabric(t, now,
		Backend{Name: "solo", Fetcher: bad, Bandwidth: 100},
	)
	for i := 0; i < breakerThreshold; i++ {
		specBatch(f, context.Background(), 0, []ID{ID(i)}) //nolint:errcheck
	}
	now.Advance(2)
	grantedN, probes := 0, 0
	for i := 0; i < 16; i++ {
		granted, probe := f.acquire(f.backends[0])
		if granted {
			grantedN++
		}
		if probe {
			probes++
		}
	}
	if grantedN != 1 || probes != 1 {
		t.Fatalf("granted=%d probes=%d after one cooldown, want exactly 1/1", grantedN, probes)
	}
}

// TestBreakerStragglerCancellationKeepsProbe pins the probe-ownership
// rule: a cancelled attempt that did NOT carry the half-open probe (a
// straggler launched before the trip, a hedge loser) must not demote
// the half-open state or restart the cooldown — only the probe's own
// outcome decides.
func TestBreakerStragglerCancellationKeepsProbe(t *testing.T) {
	now := &manualNow{}
	bad := &breakerFetcher{}
	bad.broken.Store(true)
	f := newBreakerFabric(t, now,
		Backend{Name: "solo", Fetcher: bad, Bandwidth: 100},
	)
	for i := 0; i < breakerThreshold; i++ {
		specBatch(f, context.Background(), 0, []ID{ID(i)}) //nolint:errcheck
	}
	now.Advance(2)
	b := f.backends[0]
	if granted, probe := f.acquire(b); !granted || !probe {
		t.Fatalf("probe not granted after cooldown (granted=%t probe=%t)", granted, probe)
	}
	// A straggler's cancellation arrives while the probe is in flight.
	f.settle(ticket{b: b, start: now.Now()}, 0, context.Canceled)
	if st := f.breakerState(b); st != "half-open" {
		t.Fatalf("straggler cancellation demoted the breaker to %q, want half-open", st)
	}
	// A straggler's *failure* must not re-open/re-arm either.
	f.settle(ticket{b: b, start: now.Now()}, 0, errOrigin)
	if st := f.breakerState(b); st != "half-open" {
		t.Fatalf("straggler failure demoted the breaker to %q, want half-open", st)
	}
	// Nor may a straggler's *success* close the breaker — recovery goes
	// through the probe's own verdict.
	f.settle(ticket{b: b, start: now.Now()}, 1, nil)
	if st := f.breakerState(b); st != "half-open" {
		t.Fatalf("straggler success closed the breaker (%q), want half-open", st)
	}
	// The probe's own cancellation releases the slot back to open.
	f.settle(ticket{b: b, start: now.Now(), probe: true}, 0, context.Canceled)
	if st := f.breakerState(b); st != "open" {
		t.Fatalf("cancelled probe left the breaker %q, want open", st)
	}
}

// TestBreakerHalfOpenSingleProbeRace is the concurrent counterpart of
// TestBreakerHalfOpenSingleProbe, meant to run under -race: many
// goroutines race the elapsed cooldown simultaneously, and the
// breakerOpen→breakerHalfOpen CompareAndSwap in acquire must admit
// exactly one probe — every other caller is refused without tearing
// the breaker state.
func TestBreakerHalfOpenSingleProbeRace(t *testing.T) {
	now := &manualNow{}
	bad := &breakerFetcher{}
	bad.broken.Store(true)
	f := newBreakerFabric(t, now,
		Backend{Name: "solo", Fetcher: bad, Bandwidth: 100},
	)
	for i := 0; i < breakerThreshold; i++ {
		specBatch(f, context.Background(), 0, []ID{ID(i)}) //nolint:errcheck
	}
	if st := f.breakerState(f.backends[0]); st != "open" {
		t.Fatalf("breaker %q after threshold failures, want open", st)
	}
	now.Advance(2)

	const callers = 32
	var (
		start    sync.WaitGroup
		done     sync.WaitGroup
		gate     = make(chan struct{})
		grantedN atomic.Int64
		probes   atomic.Int64
	)
	b := f.backends[0]
	start.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer done.Done()
			start.Done()
			<-gate
			granted, probe := f.acquire(b)
			if granted {
				grantedN.Add(1)
			}
			if probe {
				probes.Add(1)
			}
			if granted != probe {
				t.Errorf("half-open grant without probe ownership (granted=%t probe=%t)", granted, probe)
			}
		}()
	}
	start.Wait()
	close(gate)
	done.Wait()
	if grantedN.Load() != 1 || probes.Load() != 1 {
		t.Fatalf("granted=%d probes=%d across %d concurrent callers, want exactly 1/1", grantedN.Load(), probes.Load(), callers)
	}
	if st := f.breakerState(b); st != "half-open" {
		t.Fatalf("breaker %q after the race, want half-open", st)
	}
	// The winning probe's verdict still decides: a success closes the
	// breaker and normal traffic resumes.
	bad.broken.Store(false)
	f.breakerSuccess(b, true)
	if st := f.breakerState(b); st != "closed" {
		t.Fatalf("probe success left the breaker %q, want closed", st)
	}
	if _, err := f.Fetch(context.Background(), 1); err != nil {
		t.Fatalf("fetch after recovery: %v", err)
	}
}

// oddFailFetcher fails every odd id and serves every even one.
type oddFailFetcher struct{ tripCount }

func (f *oddFailFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	f.trip()
	if id%2 == 1 {
		return Item{}, errOrigin
	}
	return Item{ID: id, Size: 1}, nil
}

// TestBreakerConcurrentOutcomes drives one breaker-guarded backend from
// many goroutines at once, half the fetches failing and half succeeding,
// so breakerSuccess resets the failure run while breakerFailure extends
// it. Meant to run under -race: any plain access to the breaker's words
// races the others. A threshold no run reaches keeps the breaker closed,
// so every fetch reaches the origin and every failure is counted.
func TestBreakerConcurrentOutcomes(t *testing.T) {
	now := &manualNow{}
	f := newTestFabric(t, Config{
		Backends: []Backend{{Name: "solo", Fetcher: &oddFailFetcher{}, Bandwidth: 100}},
		Breaker:  true,
		Now:      now.Now,
	})
	f.breakerAt = 1 << 20
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := f.Fetch(context.Background(), ID(g*each+i)); err != nil {
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	st := f.Stats(now.Now())[0]
	if st.Errors != goroutines*each/2 || failed.Load() != st.Errors || st.BreakerState != "closed" {
		t.Fatalf("errors %d, failed fetches %d, breaker %q; want %d, %d, closed",
			st.Errors, failed.Load(), st.BreakerState, goroutines*each/2, goroutines*each/2)
	}
}
