package fetch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/prefetch"
)

// ErrClosed is returned by fetches issued after Close.
var ErrClosed = errors.New("fetch: fabric closed")

// errLentShrunk fails an IntoFetcher that broke the borrow rule.
var errLentShrunk = errors.New("fetch: a backend's FetchInto returned less than it was lent")

// Config assembles a Fabric. Backends is the only required field.
type Config struct {
	// Backends are the named links; at least one, names distinct.
	Backends []Backend
	// Hedging enables hedged retries on the demand path; nil disables
	// hedging (failover on error still happens).
	Hedging *Hedging
	// Now supplies time in seconds for the link estimators. Defaults
	// to the wall clock measured from construction. The engine injects
	// its own clock so link estimates share the controller's timeline.
	Now func() float64
}

type (
	// class is a traffic class: it indexes a backend's sent counters and
	// picks the link flow and the per-attempt timeout.
	class uint8
	// how says what launched an attempt, for the counters.
	how uint8
)

const (
	demand class = iota
	speculative
)

const (
	first how = iota
	retry     // follows a failed attempt
	hedge     // races a slow one
)

// backendState is one backend plus everything the fabric tracks for
// it.
type backendState struct {
	cfg   Backend
	batch BatchFetcher // non-nil when cfg.Fetcher supports batching
	// into and batchInto are cfg.Fetcher's lent-buffer forms, when it has
	// them (see IntoFetcher); called only on a fabric that Lends.
	into      IntoFetcher
	batchInto BatchIntoFetcher
	link      *prefetch.Link
	est       *estimator
	// inflight counts the attempts admitted and not yet settled: the n
	// of the link's processor sharing that routing reads.
	inflight atomic.Int64

	// sent counts, per class, the ids dispatched (per attempt: hedges and
	// retries included) and the batch round trips that carried some of
	// them — bench/'s page-batch workload reads the split. Indexed by
	// class.
	sent [2]struct {
		ids, batchCalls, batchedItems atomic.Int64
	}
	errorsN        atomic.Int64
	hedgesLaunched atomic.Int64
	hedgesWon      atomic.Int64
	retries        atomic.Int64
}

// Fabric routes fetches across the configured backends. All methods
// are safe for concurrent use. Create one with New; after Close it
// fetches nothing more.
type Fabric struct {
	backends []*backendState
	hedging  *Hedging
	nowf     func() float64
	lends    bool // see Lends
	closed   atomic.Bool
}

// New validates cfg and assembles a Fabric.
func New(cfg Config) (*Fabric, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fetch: no backends")
	}
	if cfg.Hedging != nil && (cfg.Hedging.MaxAttempts < 0 || cfg.Hedging.Backoff < 0) {
		return nil, fmt.Errorf("fetch: negative hedging parameter")
	}
	nowf := cfg.Now
	if nowf == nil {
		epoch := time.Now()
		nowf = func() float64 { return time.Since(epoch).Seconds() }
	}
	f := &Fabric{hedging: cfg.Hedging, nowf: nowf}
	seen := make(map[string]bool, len(cfg.Backends))
	f.lends = f.hedging == nil || len(cfg.Backends) == 1 || f.maxAttempts() == 1
	for i, b := range cfg.Backends {
		if b.Fetcher == nil {
			return nil, fmt.Errorf("fetch: backend %d (%q) has a nil fetcher", i, b.Name)
		}
		if b.Name == "" {
			return nil, fmt.Errorf("fetch: backend %d has no name", i)
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("fetch: duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Bandwidth < 0 || math.IsNaN(b.Bandwidth) {
			return nil, fmt.Errorf("fetch: backend %q has a negative bandwidth", b.Name)
		}
		if b.DemandTimeout < 0 || b.SpeculativeTimeout < 0 {
			return nil, fmt.Errorf("fetch: backend %q has a negative timeout", b.Name)
		}
		bs := &backendState{
			cfg:  b,
			link: prefetch.NewLink(b.Bandwidth, 0),
			est:  &estimator{},
		}
		bs.batch, _ = b.Fetcher.(BatchFetcher)
		bs.into, _ = b.Fetcher.(IntoFetcher)
		bs.batchInto, _ = b.Fetcher.(BatchIntoFetcher)
		f.lends = f.lends && bs.into != nil && (bs.batch == nil || bs.batchInto != nil)
		f.backends = append(f.backends, bs)
	}
	return f, nil
}

// BatchCapable reports whether backend i's fetcher supports FetchBatch.
func (f *Fabric) BatchCapable(i int) bool { return f.backends[i].batch != nil }

// Lends reports whether the fabric's callers may lend it buffers
// (FetchInto; a non-nil lens on the batch calls): every backend's fetcher
// has the lent-buffer form of each call it offers, and demand attempts
// run one at a time — a hedged race shares nothing, a buffer included.
// Decided once, at New; without it every payload arrives owned.
func (f *Fabric) Lends() bool { return f.lends }

// RhoPrime is the demand-only utilisation ρ̂′ a plan is admitted
// against, at time now: the links' ρ̂′, each weighted by its b as
// routing scales it (see delay), for a link that fails every call has
// no capacity — on one link, that link's own, exactly.
func (f *Fabric) RhoPrime(now float64) float64 {
	if len(f.backends) == 1 {
		return f.backends[0].link.RhoPrime(now)
	}
	var load, bw float64
	for _, b := range f.backends {
		w := b.weight() * (1 - b.est.failShare(now))
		load += w * b.link.RhoPrime(now)
		bw += w
	}
	if bw <= 0 {
		return 0
	}
	return load / bw
}

// --- routing -------------------------------------------------------------

// weight is backend b's link's b: its configured Bandwidth, or else its
// peak per-fetch goodput (estimator.peak; 0 before its first success).
// RhoPrime weighs each link's ρ̂′ by it, and so does routing.
func (b *backendState) weight() float64 {
	if b.cfg.Bandwidth > 0 {
		return b.cfg.Bandwidth
	}
	return b.est.peakBandwidth()
}

// delay is backend b's routing score at time now, lower being better:
// the expected delay s(n + 1)/b of one more transfer of size s (the same
// on every link) beside n in flight on its processor-sharing link, over
// the share of its late attempts served — a failed one is made again
// elsewhere, and a link that fails fast holds nothing in flight. A batch
// counts as one transfer: under processor sharing it slows a shorter one
// by no more than that one's size (not timed for multi-key traffic). A
// link with no b takes one fetch at a time, first while it has none in
// flight and no recent failure, so each link gets the samples that
// measure it.
func (b *backendState) delay(now float64) float64 {
	n, w := b.inflight.Load(), b.weight()
	if p := b.est.failShare(now); p > 0 {
		w *= 1 - p
	} else if n == 0 && w <= 0 {
		return 0
	}
	return float64(n+1) / w // +Inf with no b
}

// Route returns the backend the fabric would dispatch a fetch to right
// now: the first of the routing order.
func (f *Fabric) Route() int {
	best := 0
	if len(f.backends) > 1 {
		now := f.nowf()
		least := f.backends[0].delay(now)
		for i := 1; i < len(f.backends); i++ {
			if d := f.backends[i].delay(now); d < least {
				best, least = i, d
			}
		}
	}
	return best
}

// routeOrder returns all backends by their delay now, the least first —
// the hedge/failover sequence; on a tie the earlier backend stays ahead.
func (f *Fabric) routeOrder() []int {
	now := f.nowf()
	order := make([]int, len(f.backends))
	for i := range order { // insertion sort: the backend count is single digits
		order[i] = i
		for j := i; j > 0 && f.backends[order[j]].delay(now) < f.backends[order[j-1]].delay(now); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// --- the attempt bracket -------------------------------------------------
//
// Every backend call the fabric makes runs between admit (the counters,
// the in-flight count, the dispatch on the link) and settle (the
// in-flight count, the outcome into estimator and link), bounded by
// ticket.ctx. Every admitted ticket is settled. Two call shapes sit
// between them: batch, which admits for itself, and one, handed its
// ticket by fetchSequential, fetchHedged's launcher (it admits on the
// caller's goroutine and runs one on its own) or FetchSpeculativeBatch.
// What a fetch costs the link is written here only.

// ticket is one admitted attempt, from admit to settle.
type ticket struct {
	b     *backendState
	class class
	how   how
	start float64 // dispatch time, fabric clock
}

// admit opens the bracket for one round trip carrying n ids of class c
// to b, or refuses it with ErrClosed. A hedge or a retry counts its id
// again, under its label; n > 1 is a batch call and one link dispatch —
// the items travel together, the point of coalescing.
func (f *Fabric) admit(b *backendState, c class, n int, h how) (ticket, error) {
	if f.closed.Load() {
		return ticket{}, ErrClosed
	}
	b.sent[c].ids.Add(int64(n))
	if n > 1 {
		b.sent[c].batchCalls.Add(1)
		b.sent[c].batchedItems.Add(int64(n))
	}
	switch h {
	case retry:
		b.retries.Add(1)
	case hedge:
		b.hedgesLaunched.Add(1)
	}
	b.inflight.Add(1)
	t := ticket{b: b, class: c, how: h, start: f.nowf()}
	if c == demand {
		b.link.RecordDemand(t.start)
	} else {
		b.link.RecordSpeculative(t.start)
	}
	return t, nil
}

// nopCancel is ticket.ctx's cancel when the backend sets no timeout.
func nopCancel() {}

// ctx layers the backend's timeout for the ticket's class under ctx: a
// timed-out attempt reads as a failure — it feeds failover, unlike a
// caller cancellation. With none configured ctx passes
// through; the cancel releases the timer when the attempt finishes.
func (t ticket) ctx(ctx context.Context) (context.Context, context.CancelFunc) {
	d := t.b.cfg.DemandTimeout
	if t.class == speculative {
		d = t.b.cfg.SpeculativeTimeout
	}
	if d <= 0 {
		return ctx, nopCancel
	}
	return context.WithTimeout(ctx, d)
}

// settle closes the bracket: the attempt leaves the in-flight count
// and its outcome enters the link's failure share (see delay). A
// success also gives a latency sample, the goodput estimate behind an
// unconfigured bandwidth, and the size delivered on the link. A
// cancelled attempt (hedge loser, caller gave up) is neither sample nor
// failure.
func (f *Fabric) settle(t ticket, size float64, err error) {
	b := t.b
	b.inflight.Add(-1)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			b.errorsN.Add(1)
			b.est.fail(f.nowf())
		}
		return
	}
	if size <= 0 {
		size = 1
	}
	bw := b.est.observe(f.nowf()-t.start, size)
	if b.cfg.Bandwidth == 0 {
		b.link.SetBandwidth(bw) // 0, no sample: ignored
	}
	if t.class == demand {
		b.link.RecordDemandSize(size)
	} else {
		b.link.RecordSpeculativeSize(size)
	}
}

// one runs an admitted single-id attempt to its settlement: Fetch or,
// lending dst, FetchInto, as the fabric's FetchInto describes. On error
// dst comes back as it went.
func (f *Fabric) one(ctx context.Context, t ticket, id ID, dst []byte, lend bool) (Item, []byte, error) {
	actx, cancel := t.ctx(ctx)
	var item Item
	var err error
	out := dst
	if !lend {
		item, err = t.b.cfg.Fetcher.Fetch(actx, id)
	} else {
		if out, err = t.b.into.FetchInto(actx, id, dst); err == nil && len(out) < len(dst) {
			err = errLentShrunk // appends only: see IntoFetcher
		}
		item = Item{ID: id, Size: float64(len(out) - len(dst))}
	}
	cancel()
	f.settle(t, item.Size, err)
	if err != nil {
		return Item{}, dst, err
	}
	return item, out, nil
}

// batch is one's batch form for either class, admission included: one
// round trip on b filling out (and lens, when it lends dst: see
// FetchDemandBatch), held to its contract before it is settled — a short
// or misordered reply is a failed attempt like any other, so no caller
// files out[i] under the wrong id. On error dst comes back as it went.
func (f *Fabric) batch(ctx context.Context, b *backendState, c class, ids []ID, out []Item, dst []byte, lens []int) ([]byte, error) {
	t, err := f.admit(b, c, len(ids), first)
	if err != nil {
		return dst, err
	}
	actx, cancel := t.ctx(ctx)
	grown, err := b.callBatch(actx, ids, out, dst, lens)
	cancel()
	var size float64
	if err == nil {
		for _, it := range out[:len(ids)] {
			size += max(it.Size, 1) // each item floored at 1, as a single fetch's is
		}
	}
	f.settle(t, size, err)
	return grown, err
}

// callBatch makes batch's one backend call — FetchBatch or, lending dst
// (lens non-nil), FetchBatchInto — and checks the reply: exactly one
// item per requested id, in request order, or one length per id adding
// up to what was appended. On error dst comes back as it went.
func (b *backendState) callBatch(ctx context.Context, ids []ID, out []Item, dst []byte, lens []int) ([]byte, error) {
	if lens == nil {
		items, err := b.batch.FetchBatch(ctx, ids)
		if err != nil {
			return dst, err
		}
		if len(items) != len(ids) {
			return dst, fmt.Errorf("fetch: backend %q returned %d items for a %d-id batch", b.cfg.Name, len(items), len(ids))
		}
		for i, it := range items {
			if it.ID != ids[i] {
				return dst, fmt.Errorf("fetch: backend %q returned id %d at position %d of a batch (want %d)", b.cfg.Name, it.ID, i, ids[i])
			}
		}
		copy(out, items)
		return dst, nil
	}
	grown, ls, err := b.batchInto.FetchBatchInto(ctx, ids, dst, lens[:0])
	if err != nil {
		return dst, err
	}
	sum := len(dst)
	for i, n := range ls {
		if n < 0 || i >= len(ids) {
			sum = -1
			break
		}
		out[i], lens[i] = Item{ID: ids[i], Size: float64(n)}, n
		sum += n
	}
	if len(ls) != len(ids) || sum != len(grown) {
		return dst, fmt.Errorf("fetch: backend %q broke the FetchBatchInto contract for a %d-id batch (%d lengths, %d bytes appended)", b.cfg.Name, len(ids), len(ls), len(grown)-len(dst))
	}
	return grown, nil
}

// --- demand path: hedged, failing-over fetch -----------------------------

// hedgeTimer fires when fetchHedged should race a hedge on order[1]
// against its attempt on order[0]: once the attempt has run that
// backend's p95 latency — never while there is no p95 estimate yet, nor
// while order[1] has failed of late (see delay): the hedge would fail.
func (f *Fabric) hedgeTimer(order []int) <-chan time.Time {
	if p95 := f.backends[order[0]].est.p95Latency(); p95 > 0 && f.backends[order[1]].est.failShare(f.nowf()) == 0 {
		return time.After(time.Duration(p95 * float64(time.Second)))
	}
	return nil
}

// maxAttempts returns the attempt budget for one demand fetch.
func (f *Fabric) maxAttempts() int {
	if f.hedging != nil && f.hedging.MaxAttempts > 0 {
		return f.hedging.MaxAttempts
	}
	return len(f.backends)
}

// Fetch serves one demand fetch: the id goes to the backend of least
// expected delay; if hedging is configured, a second backend is raced after
// the primary's p95-derived hedge delay; a failed attempt fails over
// to the next backend (with backoff) until the attempt budget is
// spent. The first success wins and the losers are cancelled through
// their context. Without hedging the failover is purely sequential —
// no goroutine, channel or context allocation on the demand hot path.
func (f *Fabric) Fetch(ctx context.Context, id ID) (Item, error) {
	item, _, err := f.fetch(ctx, id, nil, false)
	return item, err
}

// FetchInto is Fetch on a fabric that Lends: the payload is appended to
// dst, returned extended, and the item carries its id and size alone.
// On error dst comes back as it went.
func (f *Fabric) FetchInto(ctx context.Context, id ID, dst []byte) (Item, []byte, error) {
	return f.fetch(ctx, id, dst, true)
}

// fetch is Fetch, FetchInto and a demand batch's per-key fallback.
func (f *Fabric) fetch(ctx context.Context, id ID, dst []byte, lend bool) (Item, []byte, error) {
	// A hedge against the only backend would just be a concurrent
	// duplicate on the same link, and a single attempt can neither hedge
	// nor retry: both degrade to sequential retries with backoff, as
	// WithHedging documents, and skip the race's machinery entirely.
	attempts := f.maxAttempts()
	if f.hedging == nil || len(f.backends) == 1 || attempts == 1 {
		return f.fetchSequential(ctx, id, attempts, dst, lend)
	}
	item, err := f.fetchHedged(ctx, id, attempts) // lend is false: see Lends
	return item, dst, err
}

// attemptResult is what a raced attempt reports back.
type attemptResult struct {
	item Item
	err  error
	t    ticket
}

// fetchHedged races up to attempts attempts (at least two, over at
// least two backends) for id, each owning its payload: one loop, woken
// by a result, the caller giving up, the hedge falling due or a retry's
// backoff ending. A failure with budget left arms that backoff —
// doubling per retry — unless one is already running; a success or the
// hedge timer arriving meanwhile is served at once.
func (f *Fabric) fetchHedged(ctx context.Context, id ID, attempts int) (Item, error) {
	order := f.routeOrder()

	// One shared cancellable context covers every attempt: when Fetch
	// returns, the deferred cancel reaps whichever losers still run.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, attempts) // buffered: losers never block
	launched, outstanding := 0, 0
	var refused error
	// launch dispatches the next attempt slot while the budget lasts; a
	// closed fabric refuses it.
	launch := func(h how) {
		if launched == attempts {
			return
		}
		t, err := f.admit(f.backends[order[launched%len(order)]], demand, 1, h)
		launched++
		if err != nil {
			refused = err
			return
		}
		outstanding++
		go func() {
			item, _, err := f.one(wctx, t, id, nil, false)
			results <- attemptResult{item: item, err: err, t: t}
		}()
	}

	if launch(first); outstanding == 0 {
		return Item{}, refused // nothing was attempted
	}
	hedgeC := f.hedgeTimer(order)
	var retryC <-chan time.Time // non-nil while a retry waits out its backoff
	backoff := f.hedging.Backoff
	var lastErr error
	for {
		next := first // what to launch this round, if anything
		select {
		case <-ctx.Done():
			return Item{}, ctx.Err()
		case <-hedgeC:
			hedgeC, next = nil, hedge
		case <-retryC:
			retryC, next = nil, retry
		case r := <-results:
			outstanding--
			if r.err == nil {
				if r.t.how == hedge {
					r.t.b.hedgesWon.Add(1)
				}
				return r.item, nil
			}
			if ctx.Err() != nil {
				return Item{}, ctx.Err()
			}
			lastErr = r.err
			switch {
			case launched == attempts || retryC != nil:
				// Budget spent, or a retry already due: nothing to launch.
			case backoff > 0:
				retryC, backoff = time.After(backoff), 2*backoff
			default:
				next = retry
			}
		}
		if next != first {
			launch(next)
		}
		if outstanding == 0 && retryC == nil {
			return Item{}, lastErr
		}
	}
}

// fetchSequential is the goroutine-free demand path: try backends in
// route order on the caller's goroutine (wrapping around when attempts
// exceeds the backend count) until one succeeds or the budget is spent,
// pausing hedging's backoff — doubling per retry — between failed
// attempts. They run one at a time, so each may be lent dst.
func (f *Fabric) fetchSequential(ctx context.Context, id ID, attempts int, dst []byte, lend bool) (Item, []byte, error) {
	order := []int{0}
	if len(f.backends) > 1 {
		order = f.routeOrder()
	}
	var backoff time.Duration
	if f.hedging != nil {
		backoff = f.hedging.Backoff
	}
	var lastErr error
	for n := 0; n < attempts; n++ {
		h := first
		if lastErr != nil {
			h = retry
		}
		t, err := f.admit(f.backends[order[n%len(order)]], demand, 1, h)
		if err != nil {
			return Item{}, dst, err // closed
		}
		item, out, err := f.one(ctx, t, id, dst, lend)
		if err == nil {
			return item, out, nil
		}
		if ctx.Err() != nil {
			return Item{}, dst, ctx.Err()
		}
		lastErr = err
		if backoff > 0 && n+1 < attempts {
			pause := time.NewTimer(backoff << n)
			select {
			case <-pause.C:
			case <-ctx.Done():
				pause.Stop()
				return Item{}, dst, ctx.Err()
			}
		}
	}
	return Item{}, dst, lastErr
}

// --- demand batch path ---------------------------------------------------

// FetchDemandBatch dispatches one session's misses, routed to a single
// backend by Route, as one demand-priority FetchBatch call, filling the
// caller-supplied out and errs (len(ids) each, index-aligned with ids)
// so the engine's batched demand path allocates nothing. Each key has
// its own outcome in errs[i]: one bad key never fails the batch.
//
// On a fabric that Lends a non-nil lens (len(ids) too) lends dst to the
// batch: every served key's payload is appended to dst — returned
// extended, payloads back to back in key order, a failed key adding
// nothing — lens[i] is its length and out[i] carries id and size alone.
// With lens nil dst is returned untouched.
//
// Unlike the speculative batch, a batch-level problem — the backend
// erroring the whole call, or violating the FetchBatch contract with a
// short or misordered reply — degrades to per-key fallback fetches
// through the full demand path (failover, hedging), not to a batch-wide
// error: demand keys have a caller waiting on each of them. Backends
// without batch support and single-key batches take the per-key path
// directly.
func (f *Fabric) FetchDemandBatch(ctx context.Context, backend int, ids []ID, out []Item, errs []error, dst []byte, lens []int) []byte {
	if b := f.backends[backend]; b.batch != nil && len(ids) >= 2 {
		if grown, err := f.batch(ctx, b, demand, ids, out, dst, lens); err == nil {
			clear(errs[:len(ids)])
			return grown
		}
		// Failed or in breach of the contract: one bad reply
		// cannot fail the session, so each key takes a singleton's path.
	}
	// Key by key through the full demand path, each key's own outcome
	// recorded and dst lent on; a dead context dispatches nothing more.
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			out[i], errs[i] = Item{}, err
			continue
		}
		n := len(dst)
		if out[i], dst, errs[i] = f.fetch(ctx, id, dst, lens != nil); lens != nil {
			lens[i] = len(dst) - n
		}
	}
	return dst
}

// --- speculative path ----------------------------------------------------

// FetchSpeculativeBatch dispatches speculative candidates to one
// backend (chosen by Route, once per plan) as a single FetchBatch call
// when the backend supports it and there are several, else as single
// fetches in turn, and fills the caller-supplied out (len(ids)): on
// success exactly one Item per id, in id order. An error — a short or
// misordered reply included — fails the whole batch and is counted in
// the backend's Errors. dst and lens lend a buffer exactly as
// FetchDemandBatch's do; on an error dst is returned as it went.
// Speculative fetches are single-attempt — no hedge, no failover: a
// lost prefetch costs nothing a demand fetch won't recover later, and
// doubling speculative traffic is exactly what the paper warns against.
func (f *Fabric) FetchSpeculativeBatch(ctx context.Context, backend int, ids []ID, out []Item, dst []byte, lens []int) ([]byte, error) {
	b := f.backends[backend]
	if b.batch != nil && len(ids) >= 2 {
		return f.batch(ctx, b, speculative, ids, out, dst, lens)
	}
	grown := dst
	for i, id := range ids {
		t, err := f.admit(b, speculative, 1, first)
		if err != nil {
			return dst, err // closed
		}
		n := len(grown)
		if out[i], grown, err = f.one(ctx, t, id, grown, lens != nil); err != nil {
			return dst, err
		}
		if lens != nil {
			lens[i] = len(grown) - n
		}
	}
	return grown, nil
}

// --- stats and lifecycle -------------------------------------------------

// Stats snapshots every backend's counters and link estimates as of
// time now (in the fabric's time base; the engine passes its own
// clock reading so engine and fabric stats share a timeline).
func (f *Fabric) Stats(now float64) []BackendStats {
	out := make([]BackendStats, len(f.backends))
	for i, b := range f.backends {
		out[i] = BackendStats{
			Name:               b.cfg.Name,
			Demand:             b.sent[demand].ids.Load(),
			Speculative:        b.sent[speculative].ids.Load(),
			Errors:             b.errorsN.Load(),
			BatchCalls:         b.sent[speculative].batchCalls.Load(),
			BatchedItems:       b.sent[speculative].batchedItems.Load(),
			DemandBatchCalls:   b.sent[demand].batchCalls.Load(),
			DemandBatchedItems: b.sent[demand].batchedItems.Load(),
			HedgesLaunched:     b.hedgesLaunched.Load(),
			HedgesWon:          b.hedgesWon.Load(),
			Retries:            b.retries.Load(),
			InFlight:           b.inflight.Load(),
			LatencySeconds:     b.est.latency(),
			LatencyP95Seconds:  b.est.p95Latency(),
			Bandwidth:          b.link.Bandwidth(),
			Rho:                b.link.Rho(now),
			RhoPrime:           b.link.RhoPrime(now),
		}
	}
	return out
}

// Close refuses every later attempt with ErrClosed. In-flight fetches are
// not cancelled here — they run under their callers' contexts, which the
// engine cancels on its own Close. Close is idempotent.
func (f *Fabric) Close() error {
	f.closed.Store(true)
	return nil
}
