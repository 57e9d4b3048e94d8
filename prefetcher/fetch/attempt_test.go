package fetch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file characterizes the bracket the fabric puts around a backend
// call — counted under its class and in flight, recorded on the link,
// bounded by the class's timeout, settled into estimator and link —
// through every public entry point, and audits the fabric's books at
// the end of every test in the package.

// --- the books -------------------------------------------------------------

// tripCount is embedded by every fake backend in this package: it counts
// the round trips the fake itself saw, for checkBooks to hold against
// what the fabric says it sent.
type tripCount struct{ n atomic.Int64 }

func (c *tripCount) trip()                      { c.n.Add(1) }
func (c *tripCount) tripCounter() *atomic.Int64 { return &c.n }

// checkBooks audits a fabric against its fakes once traffic has
// stopped. Two identities: every id the fabric counts as dispatched
// travelled in exactly one round trip some fake saw —
//
//	round trips = Demand + Speculative − (BatchedItems − BatchCalls)
//	                                   − (DemandBatchedItems − DemandBatchCalls)
//
// summed over the backends (hedges and retries included: each is a round
// trip), and every backend's in-flight count is back to 0: each admitted
// attempt was settled. A hedge loser may still be on its way to its fake
// when the winner returns, so the audit polls briefly before it fails.
// newTestFabric, which every test in the package builds its fabrics
// through, runs it when the test ends, before and after Close.
func checkBooks(t testing.TB, f *Fabric) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		msg := auditBooks(f)
		if msg == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("the fabric's books do not balance: %s", msg)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func auditBooks(f *Fabric) string {
	fakes := make(map[*atomic.Int64]bool)
	var sent, trips int64
	for i, st := range f.Stats(0) {
		if st.InFlight != 0 {
			return fmt.Sprintf("backend %q has %d attempts in flight", st.Name, st.InFlight)
		}
		sent += st.Demand + st.Speculative - (st.BatchedItems - st.BatchCalls) - (st.DemandBatchedItems - st.DemandBatchCalls)
		fake, ok := f.backends[i].cfg.Fetcher.(interface{ tripCounter() *atomic.Int64 })
		if !ok {
			return fmt.Sprintf("backend %q's fake (%T) does not count its round trips", st.Name, f.backends[i].cfg.Fetcher)
		}
		fakes[fake.tripCounter()] = true
	}
	for n := range fakes {
		trips += n.Load()
	}
	if sent != trips {
		return fmt.Sprintf("the counters say %d round trips, the fakes saw %d", sent, trips)
	}
	return ""
}

// --- the scripted backend --------------------------------------------------

type attemptScript int

const (
	scrOK         attemptScript = iota
	scrFail                     // every call errors
	scrStall                    // every call waits out its attempt's deadline
	scrCancel                   // the caller cancels while the call is out
	scrBreakBatch               // batch replies break the contract; single calls are fine
	scrShrink                   // lent calls hand back less than they were lent; owned calls are fine
)

func (s attemptScript) String() string {
	return [...]string{"ok", "fail", "stall", "cancel", "break-batch", "shrink"}[s]
}

var errScripted = errors.New("scripted failure")

// scriptedFetcher plays one script through every call form the fabric
// probes for. A round trip takes a quarter second of the fabric's
// (manual) clock, so a success is a latency sample.
type scriptedFetcher struct {
	tripCount
	script attemptScript
	clk    *manualNow
	cancel context.CancelFunc // the caller's, for scrCancel
}

func (s *scriptedFetcher) begin(ctx context.Context) error {
	s.trip()
	s.clk.Advance(0.25)
	switch s.script {
	case scrFail:
		return errScripted
	case scrStall:
		<-ctx.Done()
		return ctx.Err()
	case scrCancel:
		s.cancel()
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

func (s *scriptedFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	if err := s.begin(ctx); err != nil {
		return Item{}, err
	}
	b := intoPayload(id)
	return Item{ID: id, Size: float64(len(b)), Data: b}, nil
}

func (s *scriptedFetcher) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	if err := s.begin(ctx); err != nil {
		return dst, err
	}
	if s.script == scrShrink {
		return dst[:len(dst)-1], nil
	}
	return append(dst, intoPayload(id)...), nil
}

func (s *scriptedFetcher) FetchBatch(ctx context.Context, ids []ID) ([]Item, error) {
	if err := s.begin(ctx); err != nil {
		return nil, err
	}
	items := make([]Item, len(ids))
	for i, id := range ids {
		b := intoPayload(id)
		items[i] = Item{ID: id, Size: float64(len(b)), Data: b}
	}
	if s.script == scrBreakBatch {
		items[0], items[len(items)-1] = items[len(items)-1], items[0]
	}
	return items, nil
}

func (s *scriptedFetcher) FetchBatchInto(ctx context.Context, ids []ID, dst []byte, lens []int) ([]byte, []int, error) {
	if err := s.begin(ctx); err != nil {
		return dst, lens, err
	}
	out := dst
	for _, id := range ids {
		b := intoPayload(id)
		out, lens = append(out, b...), append(lens, len(b))
	}
	switch s.script {
	case scrBreakBatch:
		lens = lens[:len(lens)-1]
	case scrShrink:
		out = dst[:len(dst)-1]
	}
	return out, lens, nil
}

// scriptedSingles hides the batch forms.
type scriptedSingles struct{ s *scriptedFetcher }

func (w scriptedSingles) tripCounter() *atomic.Int64 { return w.s.tripCounter() }
func (w scriptedSingles) Fetch(ctx context.Context, id ID) (Item, error) {
	return w.s.Fetch(ctx, id)
}
func (w scriptedSingles) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	return w.s.FetchInto(ctx, id, dst)
}

// --- the matrix ------------------------------------------------------------

type attemptEntry int

const (
	viaFetch attemptEntry = iota
	viaFetchInto
	viaDemandBatch
	viaSpeculative
	viaSpeculativeBatch
)

func (e attemptEntry) String() string {
	return [...]string{"Fetch", "FetchInto", "FetchDemandBatch", "FetchSpeculativeBatch(one id)", "FetchSpeculativeBatch"}[e]
}

// attemptNeighbour is what shares the fabric with the row's backend.
// Beside another link the row's backend is the second configured, so
// it gets the row's calls only by shortest expected delay — (in-flight
// + 1)/b least, a link with no b taking one fetch at a time — and never
// by the tie that keeps the earlier backend. The failures a row's calls
// meet (three at most, in a 3-id demand batch, before its last key is
// routed) scale its weight by 0.95³ at the least, which no neighbour's
// margin gives back.
type attemptNeighbour int

const (
	nbrNone          attemptNeighbour = iota
	nbrIdleHalfB                      // idle, half the row's b: 1/50 against 1/100
	nbrBusySameB                      // one attempt held on the row's b: 2/100 against 1/100
	nbrBusyDoubleB                    // two attempts held on twice the b: 3/200 against 1/100
	nbrBusyUnweighed                  // one attempt held, no b: +Inf against 1/100
)

func (n attemptNeighbour) String() string {
	return [...]string{"alone", "beside-idle-half-b", "beside-busy-same-b", "beside-busy-double-b", "beside-busy-unweighed"}[n]
}

// backend is the neighbour's configuration, and held the attempts it
// has in flight while the row runs.
func (n attemptNeighbour) backend(fetcher Fetcher) (b Backend, held int) {
	b = Backend{Name: "neighbour", Fetcher: fetcher}
	switch n {
	case nbrIdleHalfB:
		b.Bandwidth = 50
	case nbrBusySameB:
		b.Bandwidth, held = 100, 1
	case nbrBusyDoubleB:
		b.Bandwidth, held = 200, 2
	case nbrBusyUnweighed:
		held = 1
	}
	return b, held
}

type attemptRow struct {
	entry     attemptEntry
	n         int  // ids in the call
	lent      bool // the caller lends dst
	singles   bool // the backend has no batch form
	neighbour attemptNeighbour
	script    attemptScript
}

func (r attemptRow) name() string {
	own, shape := "owned", "batch-capable"
	if r.lent {
		own = "lent"
	}
	if r.singles {
		shape = "singles-only"
	}
	return fmt.Sprintf("%v/%d-id/%s/%s/%v/%v", r.entry, r.n, own, shape, r.neighbour, r.script)
}

func attemptRows() []attemptRow {
	var rows []attemptRow
	shapes := []attemptRow{
		{entry: viaFetch, n: 1},
		{entry: viaFetchInto, n: 1, lent: true},
		{entry: viaSpeculative, n: 1},
	}
	for _, entry := range []attemptEntry{viaDemandBatch, viaSpeculativeBatch} {
		for _, n := range []int{1, 3} {
			for _, lent := range []bool{false, true} {
				for _, singles := range []bool{false, true} {
					shapes = append(shapes, attemptRow{entry: entry, n: n, lent: lent, singles: singles})
				}
			}
		}
	}
	for _, shape := range shapes {
		for nbr := nbrNone; nbr <= nbrBusyUnweighed; nbr++ {
			for scr := scrOK; scr <= scrShrink; scr++ {
				if scr == scrShrink && !shape.lent {
					continue // reads as scrOK
				}
				row := shape
				row.neighbour, row.script = nbr, scr
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// attemptOutcome is how one bracketed call ended.
type attemptOutcome int

const (
	outServed    attemptOutcome = iota // success
	outFailed                          // errScripted
	outTimedOut                        // the attempt's own deadline
	outCancelled                       // the caller gave up
	outViolated                        // a batch reply broke its contract
	outShrunk                          // errLentShrunk
	outDeadCtx                         // never dispatched: the caller's context was already dead
)

// attemptModel is the contract, written once: what one bracket counts,
// records and settles, and how each entry point strings brackets
// together over the one backend its calls are routed to, one attempt a
// fetch.
type attemptModel struct {
	row   attemptRow
	stats BackendStats // the counter fields a row may move
	trips int64
	dead  bool // the caller's context has been cancelled
	// Whether the link's two flows saw a dispatch, and a size to go with it.
	demandDispatch, totalDispatch, demandSize, totalSize bool
	samples                                              int // successes: each is a latency sample
}

func (m *attemptModel) bracket(demandClass bool, n int) attemptOutcome {
	if demandClass {
		m.stats.Demand += int64(n)
		m.demandDispatch = true
		if n > 1 {
			m.stats.DemandBatchCalls++
			m.stats.DemandBatchedItems += int64(n)
		}
	} else {
		m.stats.Speculative += int64(n)
		if n > 1 {
			m.stats.BatchCalls++
			m.stats.BatchedItems += int64(n)
		}
	}
	m.totalDispatch = true
	m.trips++
	out := outServed
	switch m.row.script {
	case scrFail:
		out = outFailed
	case scrStall:
		out = outTimedOut
	case scrCancel:
		out = outCancelled
	case scrBreakBatch:
		if n > 1 {
			out = outViolated
		}
	case scrShrink:
		if n > 1 {
			out = outViolated
		} else {
			out = outShrunk
		}
	}
	switch out {
	case outServed:
		m.totalSize = true
		m.demandSize = m.demandSize || demandClass
		m.samples++
	case outCancelled: // neither a sample nor an error
		m.dead = true
	default:
		m.stats.Errors++
	}
	return out
}

// run plays the row's call through the model: one outcome per id for
// the per-key entry points, one in all for a speculative batch.
func (m *attemptModel) run() []attemptOutcome {
	r := m.row
	batched := !r.singles && r.n >= 2
	switch r.entry {
	case viaFetch, viaFetchInto:
		return []attemptOutcome{m.bracket(true, 1)}
	case viaSpeculative:
		return []attemptOutcome{m.bracket(false, 1)}
	case viaDemandBatch:
		outs := make([]attemptOutcome, r.n)
		if batched && m.bracket(true, r.n) == outServed {
			for i := range outs {
				outs[i] = outServed
			}
			return outs
		}
		for i := range outs { // failed: key by key
			if m.dead {
				outs[i] = outDeadCtx
			} else {
				outs[i] = m.bracket(true, 1)
			}
		}
		return outs
	default:
		if batched {
			return []attemptOutcome{m.bracket(false, r.n)}
		}
		for i := 0; i < r.n; i++ { // single calls, all or nothing
			if out := m.bracket(false, 1); out != outServed {
				return []attemptOutcome{out}
			}
		}
		return []attemptOutcome{outServed}
	}
}

func checkAttemptErr(t *testing.T, what string, err error, want attemptOutcome) {
	t.Helper()
	sentinels := map[attemptOutcome]error{
		outFailed:    errScripted,
		outTimedOut:  context.DeadlineExceeded,
		outCancelled: context.Canceled,
		outDeadCtx:   context.Canceled,
		outShrunk:    errLentShrunk,
	}
	switch {
	case want == outServed:
		if err != nil {
			t.Errorf("%s: err = %v, want success", what, err)
		}
	case want == outViolated:
		if err == nil {
			t.Errorf("%s: a broken batch contract must be an error", what)
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				t.Errorf("%s: err = %v, want the fabric's own contract error", what, err)
			}
		}
	case !errors.Is(err, sentinels[want]):
		t.Errorf("%s: err = %v, want %v", what, err, sentinels[want])
	}
}

// TestAttemptBracket is the matrix: scripted backend × entry point ×
// {1 id, 3 ids} × {owned, lent} × neighbour, each row held to the exact
// BackendStats delta, the round trips the fake saw, what the link's two
// flows recorded, no attempt left in flight — a failed, timed-out,
// cancelled, short or misordered one included — the error per key and
// dst/lens/items as the entry point's contract says. Beside a
// neighbour, Route picks the row's backend, the batch entry points are
// handed it, as the engine hands them Route's pick, and the neighbour's
// books end as the held attempts left them: each still in flight,
// nothing else moved. The neighbour's fetch budget is one attempt, so
// a failure does not fail over to it (TestFailoverOrder covers that).
func TestAttemptBracket(t *testing.T) {
	for _, row := range attemptRows() {
		row := row
		t.Run(row.name(), func(t *testing.T) {
			clk := &manualNow{}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fake := &scriptedFetcher{script: row.script, clk: clk, cancel: cancel}
			backend := Backend{Name: "b", Fetcher: fake, Bandwidth: 100,
				DemandTimeout: 5 * time.Millisecond, SpeculativeTimeout: 5 * time.Millisecond}
			if row.singles {
				backend.Fetcher = scriptedSingles{fake}
			}
			cfg := Config{Backends: []Backend{backend}, Now: clk.Now}
			neighbour := &gateFetcher{release: make(chan struct{})}
			nb, held := row.neighbour.backend(neighbour)
			if row.neighbour != nbrNone {
				cfg.Backends = []Backend{nb, backend}
				cfg.Hedging = &Hedging{MaxAttempts: 1}
			}
			at := len(cfg.Backends) - 1 // the row's backend
			f := newTestFabric(t, cfg)
			if !f.Lends() {
				t.Fatal("the scripted backend has every lent form")
			}
			var wg sync.WaitGroup
			t.Cleanup(func() { // before newTestFabric's audit
				close(neighbour.release)
				wg.Wait()
			})
			for i := 0; i < held; i++ {
				wg.Add(1)
				go func(id ID) {
					defer wg.Done()
					if _, err := specBatch(f, context.Background(), 0, []ID{id}); err != nil {
						t.Error(err)
					}
				}(ID(i))
			}
			// Admitted, and inside the fake: admit counts the attempt in
			// flight before the fake counts its round trip.
			for f.Stats(0)[0].InFlight != int64(held) || neighbour.n.Load() != int64(held) {
				time.Sleep(100 * time.Microsecond)
			}
			if got := f.Route(); got != at {
				t.Fatalf("Route() = %d, want the row's backend %d", got, at)
			}

			m := &attemptModel{row: row}
			want := m.run()

			// At 100 and up, so a neighbour handed one serves it at once,
			// on its books, rather than holding it.
			ids := []ID{105, 106, 107}[:row.n]
			const head = "head"
			dst := append(make([]byte, 0, 256), head...)
			out, errs := make([]Item, row.n), make([]error, row.n)
			var lens []int
			if row.lent {
				lens = make([]int, row.n)
			}
			got := dst
			switch row.entry {
			case viaFetch:
				out[0], errs[0] = f.Fetch(ctx, ids[0])
			case viaFetchInto:
				out[0], got, errs[0] = f.FetchInto(ctx, ids[0], dst)
				lens[0] = len(got) - len(dst)
			case viaSpeculative:
				_, errs[0] = f.FetchSpeculativeBatch(ctx, at, ids[:1], out[:1], nil, nil)
			case viaDemandBatch:
				got = f.FetchDemandBatch(ctx, at, ids, out, errs, dst, lens)
			case viaSpeculativeBatch:
				var err error
				got, err = f.FetchSpeculativeBatch(ctx, at, ids, out, dst, lens)
				for i := range errs {
					errs[i] = err
				}
			}

			// The error per key, and what landed where.
			landed := head
			for i, id := range ids {
				w := want[0]
				if len(want) == row.n {
					w = want[i]
				}
				checkAttemptErr(t, fmt.Sprintf("key %d", id), errs[i], w)
				if w != outServed {
					continue
				}
				payload := string(intoPayload(id))
				if out[i].ID != id || out[i].Size != float64(len(payload)) {
					t.Errorf("key %d: item %+v, want its id and size %d", id, out[i], len(payload))
				}
				if row.lent {
					landed += payload
					if out[i].Data != nil || lens[i] != len(payload) {
						t.Errorf("key %d: a lent item carries id and size alone and lens its length: %+v, lens %v", id, out[i], lens)
					}
				} else if data, _ := out[i].Data.([]byte); string(data) != payload {
					t.Errorf("key %d: an owned item carries its payload, got %+v", id, out[i])
				}
			}
			if string(got) != landed || &got[0] != &dst[0] {
				t.Errorf("dst came back %q, want %q in the lent buffer", got, landed)
			}

			// The books: every counter, and the round trips behind them.
			clk.Advance(1)
			all := f.Stats(clk.Now())
			st := all[at]
			if st.InFlight != 0 {
				t.Errorf("%d attempts in flight once the call returned", st.InFlight)
			}
			counters := st
			counters.Name = ""
			counters.LatencySeconds, counters.LatencyP95Seconds = 0, 0
			counters.Bandwidth, counters.Rho, counters.RhoPrime = 0, 0, 0
			if counters != m.stats {
				t.Errorf("counters moved by %+v, want %+v", counters, m.stats)
			}
			if trips := fake.n.Load(); trips != m.trips {
				t.Errorf("the backend saw %d round trips, want %d", trips, m.trips)
			}
			if (st.LatencySeconds > 0) != (m.samples > 0) || (st.LatencyP95Seconds > 0) != (m.samples > 0) {
				t.Errorf("latency %v / p95 %v after %d successes", st.LatencySeconds, st.LatencyP95Seconds, m.samples)
			}

			// The link: a flow reads non-zero once it has a dispatch and
			// a size; folding a size by hand then shows the dispatches
			// that had none.
			if (st.Rho > 0) != m.totalSize || (st.RhoPrime > 0) != m.demandSize {
				t.Errorf("ρ̂ %v ρ̂′ %v, want sized dispatches on total %v, on demand %v", st.Rho, st.RhoPrime, m.totalSize, m.demandSize)
			}
			link := f.backends[at].link
			link.RecordDemandSize(1)
			if rho, rhoPrime := link.Rho(clk.Now()), link.RhoPrime(clk.Now()); (rho > 0) != m.totalDispatch || (rhoPrime > 0) != m.demandDispatch {
				t.Errorf("with a size folded in ρ̂ %v ρ̂′ %v, want dispatches on total %v, on demand %v", rho, rhoPrime, m.totalDispatch, m.demandDispatch)
			}

			// The neighbour: its held attempts, and nothing of the row's.
			if at > 0 {
				nst := all[0]
				nst.LatencySeconds, nst.LatencyP95Seconds = 0, 0
				nst.Bandwidth, nst.Rho, nst.RhoPrime = 0, 0, 0
				want := BackendStats{Name: "neighbour", Speculative: int64(held), InFlight: int64(held)}
				if nst != want || neighbour.n.Load() != int64(held) {
					t.Errorf("the neighbour's books read %+v after %d round trips, want %+v after %d", nst, neighbour.n.Load(), want, held)
				}
			}
		})
	}
}

// Every entry point refuses a closed fabric key by key, touching no
// backend, counter — the in-flight count included — or buffer.
func TestAttemptClosedFabric(t *testing.T) {
	clk := &manualNow{}
	fake := &scriptedFetcher{clk: clk}
	f := newTestFabric(t, Config{Backends: []Backend{{Name: "b", Fetcher: fake}}, Now: clk.Now})
	f.Close()
	ctx := context.Background()
	ids := []ID{1, 2}
	dst := []byte("head")
	out, errs, lens := make([]Item, 2), make([]error, 2), make([]int, 2)
	check := func(what string, got []byte, errs ...error) {
		t.Helper()
		if string(got) != "head" {
			t.Errorf("%s on a closed fabric returned dst %q", what, got)
		}
		for _, err := range errs {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s on a closed fabric: err = %v, want ErrClosed", what, err)
			}
		}
	}
	_, err := f.Fetch(ctx, 1)
	check("Fetch", dst, err)
	_, got, err := f.FetchInto(ctx, 1, dst)
	check("FetchInto", got, err)
	_, err = f.FetchSpeculativeBatch(ctx, 0, ids[:1], out[:1], nil, nil)
	check("FetchSpeculativeBatch(one id)", dst, err)
	got, err = f.FetchSpeculativeBatch(ctx, 0, ids, out, dst, lens)
	check("FetchSpeculativeBatch", got, err)
	check("FetchDemandBatch", f.FetchDemandBatch(ctx, 0, ids, out, errs, dst, lens), errs...)
	st := f.Stats(0)[0]
	st.Name = ""
	if st != (BackendStats{}) || fake.n.Load() != 0 {
		t.Errorf("a closed fabric moved its books: %+v, %d round trips", st, fake.n.Load())
	}
}

// --- failover order and backoff --------------------------------------------

// timedFetcher fails its first `failures` calls, each after `hold`, and
// serves the rest after `hold`; it records when each call began.
type timedFetcher struct {
	tripCount
	failures int
	hold     time.Duration
	err      error

	mu     sync.Mutex
	starts []time.Time
}

func (f *timedFetcher) begin(ctx context.Context) error {
	f.trip()
	f.mu.Lock()
	f.starts = append(f.starts, time.Now())
	fail := len(f.starts) <= f.failures
	f.mu.Unlock()
	select {
	case <-time.After(f.hold):
	case <-ctx.Done():
		return ctx.Err()
	}
	if fail {
		return f.err
	}
	return nil
}

func (f *timedFetcher) Fetch(ctx context.Context, id ID) (Item, error) {
	if err := f.begin(ctx); err != nil {
		return Item{}, err
	}
	return Item{ID: id, Size: 1}, nil
}

func (f *timedFetcher) FetchInto(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	if err := f.begin(ctx); err != nil {
		return dst, err
	}
	return append(dst, intoPayload(id)...), nil
}

func (f *timedFetcher) began() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.starts...)
}

const always = 1 << 30 // a timedFetcher that never recovers

// pinned gives two backends bandwidths that fix the route order while
// fewer than 10¹⁸ fetches are in flight: first, then second.
func pinned(first, second Fetcher) []Backend {
	return []Backend{
		{Name: "first", Fetcher: first, Bandwidth: 1e9},
		{Name: "second", Fetcher: second, Bandwidth: 1e-9},
	}
}

// Failover walks the route order — on the caller's goroutine without
// hedging, through the race's launcher with it — one attempt per
// backend, the first no retry, and the last error wins.
func TestFailoverOrder(t *testing.T) {
	errFirst, errSecond := errors.New("first down"), errors.New("second down")
	for _, mode := range []struct {
		name    string
		hedging *Hedging
	}{
		{"sequential", nil},
		{"hedged", &Hedging{}}, // no p95 estimate, so no hedge launches
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			first := &timedFetcher{failures: always, err: errFirst}
			second := &timedFetcher{failures: always, err: errSecond}
			f := newTestFabric(t, Config{Backends: pinned(first, second), Hedging: mode.hedging})
			if _, err := f.Fetch(context.Background(), 1); !errors.Is(err, errSecond) {
				t.Fatalf("err = %v, want %v", err, errSecond)
			}
			if a, b := first.began(), second.began(); len(a) != 1 || len(b) != 1 || b[0].Before(a[0]) {
				t.Fatalf("attempts began at %v (first) and %v (second), want one each, first first", a, b)
			}
			st := f.Stats(0)
			if st[0].Demand != 1 || st[0].Retries != 0 || st[1].Demand != 1 || st[1].Retries != 1 {
				t.Errorf("Demand/Retries %d/%d and %d/%d, want 1/0 and 1/1", st[0].Demand, st[0].Retries, st[1].Demand, st[1].Retries)
			}
		})
	}
}

// Sequential backoff (hedging over one backend): the pause doubles
// between failed attempts and there is none after the last.
func TestSequentialBackoffDoubles(t *testing.T) {
	const backoff = 100 * time.Millisecond
	fake := &timedFetcher{failures: always, err: errScripted}
	f := newTestFabric(t, Config{
		Backends: []Backend{{Name: "only", Fetcher: fake}},
		Hedging:  &Hedging{MaxAttempts: 3, Backoff: backoff},
	})
	dst := []byte("head")
	_, out, err := f.FetchInto(context.Background(), 1, dst)
	returned := time.Now()
	if !errors.Is(err, errScripted) || string(out) != "head" {
		t.Fatalf("err %v, dst %q", err, out)
	}
	starts := fake.began()
	if len(starts) != 3 {
		t.Fatalf("%d attempts, want 3", len(starts))
	}
	if gap := starts[1].Sub(starts[0]); gap < backoff {
		t.Errorf("first pause %v, want at least %v", gap, backoff)
	}
	if gap := starts[2].Sub(starts[1]); gap < 2*backoff {
		t.Errorf("second pause %v, want at least %v", gap, 2*backoff)
	}
	if tail := returned.Sub(starts[2]); tail >= 3*backoff {
		t.Errorf("the fetch returned %v after its last attempt: no pause follows the last failure (it would be %v)", tail, 4*backoff)
	}
	if st := f.Stats(0)[0]; st.Demand != 3 || st.Retries != 2 || st.Errors != 3 {
		t.Errorf("stats %+v", st)
	}
}

// A caller that gives up during the pause gets ctx.Err() at once, its
// lent buffer as it went.
func TestSequentialBackoffCancelled(t *testing.T) {
	fake := &timedFetcher{failures: always, err: errScripted}
	f := newTestFabric(t, Config{
		Backends: []Backend{{Name: "only", Fetcher: fake}},
		Hedging:  &Hedging{MaxAttempts: 3, Backoff: time.Minute},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	began := time.Now()
	_, out, err := f.FetchInto(ctx, 1, []byte("head"))
	if !errors.Is(err, context.DeadlineExceeded) || string(out) != "head" {
		t.Fatalf("err %v, dst %q", err, out)
	}
	if el := time.Since(began); el > 10*time.Second {
		t.Fatalf("the pause ignored the caller for %v", el)
	}
	if fake.n.Load() != 1 {
		t.Fatalf("%d attempts, want the one before the pause", fake.n.Load())
	}
}

// The hedged race over two backends (route order pinned: first, then
// second). Each case says when each backend fails or serves, and holds
// the fetch to who was asked, under what label, and how long it took.
func TestHedgedBackoff(t *testing.T) {
	errFirst, errSecond := errors.New("first down"), errors.New("second down")
	type side struct {
		failures int
		hold     time.Duration
	}
	for _, tc := range []struct {
		name          string
		hedging       Hedging
		hedgeAt       time.Duration // the primary's p95; 0: no estimate, no hedge
		first, second side
		wantErr       error
		atLeast, less time.Duration // elapsed bounds; 0 = unchecked
		trips         [2]int64
		retries       [2]int64
		hedges, won   [2]int64
	}{
		{
			name:    "failure, backoff, one retry on the next backend",
			hedging: Hedging{MaxAttempts: 2, Backoff: 100 * time.Millisecond},
			first:   side{failures: always},
			atLeast: 100 * time.Millisecond,
			trips:   [2]int64{1, 1}, retries: [2]int64{0, 1},
		},
		{
			name:    "a hedge that succeeds mid-backoff wins at once",
			hedgeAt: 5 * time.Millisecond,
			hedging: Hedging{MaxAttempts: 3, Backoff: 30 * time.Second},
			first:   side{failures: always, hold: 100 * time.Millisecond},
			second:  side{hold: 200 * time.Millisecond},
			less:    15 * time.Second,
			trips:   [2]int64{1, 1}, hedges: [2]int64{0, 1}, won: [2]int64{0, 1},
		},
		{
			name:    "a second failure during the backoff launches no second retry",
			hedgeAt: 5 * time.Millisecond,
			hedging: Hedging{MaxAttempts: 3, Backoff: 500 * time.Millisecond},
			first:   side{failures: 1, hold: 100 * time.Millisecond},
			second:  side{failures: always, hold: 200 * time.Millisecond},
			atLeast: 500 * time.Millisecond,
			trips:   [2]int64{2, 1}, retries: [2]int64{1, 0}, hedges: [2]int64{0, 1},
		},
		{
			name:    "attempts past the backend count wrap around the route order",
			hedging: Hedging{MaxAttempts: 3, Backoff: 10 * time.Millisecond},
			first:   side{failures: 1},
			second:  side{failures: always},
			atLeast: 30 * time.Millisecond, // 10 ms, then 20
			trips:   [2]int64{2, 1}, retries: [2]int64{1, 1},
		},
		{
			name:    "a spent budget returns the last error",
			hedging: Hedging{MaxAttempts: 2, Backoff: 20 * time.Millisecond},
			first:   side{failures: always},
			second:  side{failures: always},
			wantErr: errSecond,
			atLeast: 20 * time.Millisecond,
			trips:   [2]int64{1, 1}, retries: [2]int64{0, 1},
		},
		{
			// BEHAVIOUR CHANGE (PR 22), the one row edited between the
			// characterization commit and the collapse: the pause after a
			// failed attempt used to be deaf to the hedge timer — this
			// fetch took the full backoff and counted a retry; hedges
			// launch without backoff, as Hedging's doc always said.
			name:    "a hedge falling due during the backoff launches then",
			hedgeAt: 50 * time.Millisecond,
			hedging: Hedging{MaxAttempts: 2, Backoff: 30 * time.Second},
			first:   side{failures: always},
			atLeast: 50 * time.Millisecond,
			less:    15 * time.Second,
			trips:   [2]int64{1, 1}, hedges: [2]int64{0, 1}, won: [2]int64{0, 1},
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			first := &timedFetcher{failures: tc.first.failures, hold: tc.first.hold, err: errFirst}
			second := &timedFetcher{failures: tc.second.failures, hold: tc.second.hold, err: errSecond}
			f := newTestFabric(t, Config{Backends: pinned(first, second), Hedging: &tc.hedging})
			if tc.hedgeAt > 0 {
				hedgeAfter(f, 0, tc.hedgeAt)
			}
			began := time.Now()
			item, err := f.Fetch(context.Background(), 9)
			elapsed := time.Since(began)
			if !errors.Is(err, tc.wantErr) || (err == nil && item.ID != 9) {
				t.Fatalf("Fetch = %+v, %v; want error %v", item, err, tc.wantErr)
			}
			if elapsed < tc.atLeast || (tc.less > 0 && elapsed >= tc.less) {
				t.Errorf("took %v, want in [%v, %v)", elapsed, tc.atLeast, tc.less)
			}
			checkBooks(t, f) // waits out a loser still on its way to its fake
			st := f.Stats(0)
			for i, fake := range []*timedFetcher{first, second} {
				if fake.n.Load() != tc.trips[i] || st[i].Demand != tc.trips[i] {
					t.Errorf("backend %d saw %d round trips (Demand %d), want %d", i, fake.n.Load(), st[i].Demand, tc.trips[i])
				}
				if st[i].Retries != tc.retries[i] || st[i].HedgesLaunched != tc.hedges[i] || st[i].HedgesWon != tc.won[i] {
					t.Errorf("backend %d: retries %d hedges %d won %d, want %d/%d/%d", i,
						st[i].Retries, st[i].HedgesLaunched, st[i].HedgesWon, tc.retries[i], tc.hedges[i], tc.won[i])
				}
			}
		})
	}
}
