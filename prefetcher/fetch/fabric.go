package fetch

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/prefetch"
)

// ErrClosed is returned by fetches issued after Close.
var ErrClosed = errors.New("fetch: fabric closed")

// ErrBreakerOpen fails a fetch fast instead of dispatching it to a
// backend whose circuit breaker is open (or, for demand fetches, when
// every backend's breaker is open and none is due a half-open probe).
var ErrBreakerOpen = errors.New("fetch: circuit breaker open")

// errLentShrunk fails an IntoFetcher that broke the borrow rule.
var errLentShrunk = errors.New("fetch: a backend's FetchInto returned less than it was lent")

// Config assembles a Fabric. Backends is the only required field.
type Config struct {
	// Backends are the named links; at least one, names distinct.
	Backends []Backend
	// Routing selects the spread strategy (default RouteWeighted).
	Routing Routing
	// Hedging enables hedged retries on the demand path; nil disables
	// hedging (failover on error still happens).
	Hedging *Hedging
	// Breaker enables per-backend circuit breaking. Each backend trips
	// independently: 5 consecutive failures open its breaker (a success
	// or an error matching fs.ErrNotExist ends the run), after which
	// routing skips the backend and fetches dispatched to it fail fast
	// with ErrBreakerOpen. A second later it half-opens: exactly one
	// probe fetch is let through — a success closes the breaker, a
	// failure re-opens it and restarts the cooldown. Demand traffic falls
	// over to the remaining healthy backends; when every backend is open
	// and none is due a probe, demand fails fast instead of queueing
	// against known-dead origins.
	Breaker bool
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
	seed      uint64 // rendezvous-hash seed derived from the name

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

	// Circuit-breaker state (unused while Config.Breaker is off):
	// consecutive non-cancelled failures, the tri-state breaker, when it
	// last opened (float64 bits, fabric time) and how often it tripped.
	consecFails atomic.Int64
	brState     atomic.Int32
	brOpenedAt  atomic.Uint64
	brOpens     atomic.Int64
}

// Fabric routes fetches across the configured backends. All methods
// are safe for concurrent use. Create one with New; after Close it
// fetches nothing more.
type Fabric struct {
	backends []*backendState
	routing  Routing
	hedging  *Hedging
	// breakerAt is the run of failures that opens a backend's circuit
	// breaker (breakerThreshold); 0 when breaking is off.
	breakerAt int64
	nowf      func() float64
	lends     bool // see Lends
	closed    atomic.Bool
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
	f := &Fabric{routing: cfg.Routing, hedging: cfg.Hedging, nowf: nowf}
	if cfg.Breaker {
		f.breakerAt = breakerThreshold
	}
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
			seed: nameSeed(b.Name),
		}
		bs.batch, _ = b.Fetcher.(BatchFetcher)
		bs.into, _ = b.Fetcher.(IntoFetcher)
		bs.batchInto, _ = b.Fetcher.(BatchIntoFetcher)
		f.lends = f.lends && bs.into != nil && (bs.batch == nil || bs.batchInto != nil)
		f.backends = append(f.backends, bs)
	}
	return f, nil
}

// NumBackends returns how many backends the fabric routes across.
func (f *Fabric) NumBackends() int { return len(f.backends) }

// BatchCapable reports whether backend i's fetcher supports FetchBatch.
func (f *Fabric) BatchCapable(i int) bool { return f.backends[i].batch != nil }

// Lends reports whether the fabric's callers may lend it buffers
// (FetchInto; a non-nil lens on the batch calls): every backend's fetcher
// has the lent-buffer form of each call it offers, and demand attempts
// run one at a time — a hedged race shares nothing, a buffer included.
// Decided once, at New; without it every payload arrives owned.
func (f *Fabric) Lends() bool { return f.lends }

// RhoPrime is the demand-only utilisation ρ̂′ a plan is admitted
// against, at time now: the links' ρ̂′, each weighted by its link's b
// (see weight) — on one link, that link's own, exactly.
//
//prefetch:hotpath
func (f *Fabric) RhoPrime(now float64) float64 {
	if len(f.backends) == 1 {
		return f.backends[0].link.RhoPrime(now)
	}
	var load, bw float64
	for _, b := range f.backends {
		w := b.weight()
		load += w * b.link.RhoPrime(now)
		bw += w
	}
	if bw <= 0 {
		return 0
	}
	return load / bw
}

// --- circuit breaker -----------------------------------------------------

// routable reports, without side effects, whether backend b should
// receive new traffic: its breaker is closed, or open long enough that
// a half-open probe is due. Routing and planning use this to steer
// candidates away from tripped backends.
func (f *Fabric) routable(b *backendState) bool {
	if f.breakerAt == 0 {
		return true
	}
	switch b.brState.Load() {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return false // the probe is out; wait for its verdict
	default:
		opened := math.Float64frombits(b.brOpenedAt.Load())
		return f.nowf()-opened >= breakerCooldown
	}
}

// acquire claims the right to dispatch one fetch to backend b: always
// granted while the breaker is closed; when it is open and the cooldown
// has elapsed, exactly one caller wins the transition to half-open and
// carries the probe — probe reports that ownership, and the attempt's
// outcome (not global state) decides the breaker's verdict in
// breakerFailure/breakerCancelled. Callers that are refused skip the
// backend.
func (f *Fabric) acquire(b *backendState) (granted, probe bool) {
	if f.breakerAt == 0 || b.brState.Load() == breakerClosed {
		return true, false
	}
	if !f.routable(b) {
		return false, false
	}
	won := b.brState.CompareAndSwap(breakerOpen, breakerHalfOpen)
	return won, won
}

// breakerSuccess records a successful fetch: the failure run ends and,
// when this attempt carried the half-open probe, the breaker closes.
// A straggler's success (an attempt launched before the trip) must not
// re-close an open breaker — recovery goes through the documented
// cooldown-then-probe discipline, same as failures and cancellations.
func (f *Fabric) breakerSuccess(b *backendState, probe bool) {
	if f.breakerAt == 0 {
		return
	}
	b.consecFails.Store(0)
	if probe {
		b.brState.CompareAndSwap(breakerHalfOpen, breakerClosed)
	}
}

// breakerFailure records a failed fetch. A failed half-open probe
// re-opens the breaker immediately (only the attempt that carries the
// probe may do this — a straggler launched before the trip must not
// decide the probe's verdict); otherwise a closed breaker opens once
// the consecutive failure run reaches the threshold.
func (f *Fabric) breakerFailure(b *backendState, probe bool) {
	if f.breakerAt == 0 {
		return
	}
	from := breakerHalfOpen
	if n := b.consecFails.Add(1); !probe {
		if n < f.breakerAt {
			return
		}
		from = breakerClosed
	}
	if b.brState.CompareAndSwap(from, breakerOpen) {
		b.brOpenedAt.Store(math.Float64bits(f.nowf()))
		b.brOpens.Add(1)
	}
}

// breakerCancelled handles an attempt that was cancelled (hedge loser,
// caller gave up): it is neither success nor failure, but when it
// carried the half-open probe the slot must not stay wedged — the
// breaker returns to open with a fresh cooldown, and the next elapsed
// cooldown grants a new probe.
func (f *Fabric) breakerCancelled(b *backendState, probe bool) {
	if f.breakerAt == 0 || !probe {
		return
	}
	if b.brState.CompareAndSwap(breakerHalfOpen, breakerOpen) {
		b.brOpenedAt.Store(math.Float64bits(f.nowf()))
	}
}

// breakerNames names the breaker states for stats.
var breakerNames = [...]string{breakerClosed: "closed", breakerOpen: "open", breakerHalfOpen: "half-open"}

// breakerState names backend b's current breaker state for stats.
func (f *Fabric) breakerState(b *backendState) string {
	if f.breakerAt == 0 {
		return ""
	}
	return breakerNames[b.brState.Load()]
}

// --- routing -------------------------------------------------------------

// nameSeed hashes a backend name to a stable rendezvous seed (FNV-1a).
func nameSeed(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is a splitmix64 round — the per-(id, backend) hash behind
// rendezvous routing.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// weight is backend b's link's b: its configured Bandwidth, or else its
// peak per-fetch goodput (estimator.peak; 0 before its first success).
// RhoPrime weighs each link's ρ̂′ by it, and weighted routing spreads ids
// in proportion to it once every link has one — evenly until then, so
// no link is starved of the samples that measure it.
func (b *backendState) weight() float64 {
	if b.cfg.Bandwidth > 0 {
		return b.cfg.Bandwidth
	}
	return b.est.peakBandwidth()
}

// score returns backend b's routing score for id — lower is better.
func (f *Fabric) score(b *backendState, id ID) float64 {
	if f.routing == RouteLatency {
		if lat := b.est.latency(); lat > 0 {
			return lat
		}
		return -1 // unmeasured: try it before any measured backend
	}
	// Weighted rendezvous: u uniform in (0,1), score −ln(u)/w is
	// exponential with rate w; the minimum lands on backend i with
	// probability w_i/Σw, stably per id while the weights hold.
	w := b.weight()
	for _, o := range f.backends {
		if o.weight() <= 0 {
			w = 1
		}
	}
	u := (float64(mix(uint64(id)^b.seed)>>11) + 1) / (1 << 53)
	return -math.Log(u) / w
}

// before is the one routing order: backend a is preferred to b for id
// when it is routable and b's breaker is tripped, else by the lower
// score; on a tie the earlier backend stays ahead.
func (f *Fabric) before(a, b *backendState, id ID) bool {
	if ra, rb := f.routable(a), f.routable(b); ra != rb {
		return ra
	}
	return f.score(a, id) < f.score(b, id)
}

// Route returns the backend the fabric would dispatch id to right now,
// the first of the routing order. With every breaker tripped the pure
// score order decides, and the dispatch itself fails fast.
func (f *Fabric) Route(id ID) int {
	best := 0
	for i := 1; i < len(f.backends); i++ {
		if f.before(f.backends[i], f.backends[best], id) {
			best = i
		}
	}
	return best
}

// routeOrder returns all backends for id in the routing order — the
// hedge/failover sequence: failover prefers healthy links but can
// still reach a tripped one as the last resort.
func (f *Fabric) routeOrder(id ID) []int {
	order := make([]int, len(f.backends))
	for i := range order { // insertion sort: the backend count is single digits
		order[i] = i
		for j := i; j > 0 && f.before(f.backends[order[j]], f.backends[order[j-1]], id); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// --- the attempt bracket -------------------------------------------------
//
// Every backend call the fabric makes runs between admit (the breaker's
// leave, the counters, the dispatch on the link) and settle (the
// outcome into breaker, estimator and link), bounded by ticket.ctx. Two
// call shapes sit between them: batch, which admits for itself, and one,
// handed its ticket by fetchSequential, fetchHedged's launcher (it admits
// on the caller's goroutine and runs one on its own) or
// FetchSpeculativeBatch. What a fetch costs the link is written here only.

// ticket is one admitted attempt, from admit to settle.
type ticket struct {
	b     *backendState
	class class
	how   how
	probe bool    // the attempt carries the breaker's half-open probe
	start float64 // dispatch time, fabric clock
}

// admit opens the bracket for one round trip carrying n ids of class c
// to b, or says why nothing may go out: ErrClosed, or ErrBreakerOpen
// from b's breaker. A hedge or a retry counts its id again, under its
// label; n > 1 is a batch call and one link dispatch — the items travel
// together, the point of coalescing.
//
//prefetch:hotpath
func (f *Fabric) admit(b *backendState, c class, n int, h how) (ticket, error) {
	if f.closed.Load() {
		return ticket{}, ErrClosed
	}
	granted, probe := f.acquire(b)
	if !granted {
		return ticket{}, ErrBreakerOpen
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
	t := ticket{b: b, class: c, how: h, probe: probe, start: f.nowf()}
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
// timed-out attempt reads as a failure — it feeds failover and the
// breaker, unlike a caller cancellation. With none configured ctx passes
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

// settle closes the bracket: the breaker's verdict, by the attempt's own
// outcome and probe ownership, and for a success a latency sample, the
// goodput estimate behind an unconfigured bandwidth, and the size
// delivered on the link. A cancelled attempt (hedge loser, caller gave
// up) is neither sample nor error, but a cancelled probe frees its slot.
// To the breaker, fs.ErrNotExist (the origin has no such key) is an answer.
//
//prefetch:hotpath
func (f *Fabric) settle(t ticket, size float64, err error) {
	b := t.b
	if err != nil {
		if errors.Is(err, context.Canceled) {
			f.breakerCancelled(b, t.probe)
			return
		}
		b.errorsN.Add(1)
		if errors.Is(err, fs.ErrNotExist) {
			f.breakerSuccess(b, t.probe)
		} else {
			f.breakerFailure(b, t.probe)
		}
		return
	}
	f.breakerSuccess(b, t.probe)
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
//
//prefetch:hotpath
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

// hedgeTimer fires when fetchHedged should race a hedge against its
// attempt on backend idx: once the attempt has run the backend's p95
// latency — never, while there is no p95 estimate yet.
func (f *Fabric) hedgeTimer(idx int) <-chan time.Time {
	if p95 := f.backends[idx].est.p95Latency(); p95 > 0 {
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

// Fetch serves one demand fetch: the id is routed to its preferred
// backend; if hedging is configured, a second backend is raced after
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
	order := f.routeOrder(id)

	// One shared cancellable context covers every attempt: when Fetch
	// returns, the deferred cancel reaps whichever losers still run.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptResult, attempts) // buffered: losers never block
	launched, outstanding := 0, 0
	var refused error
	// launch dispatches the next attempt slot admit lets out; slots on
	// tripped backends are consumed and skipped.
	launch := func(h how) {
		for launched < attempts {
			t, err := f.admit(f.backends[order[launched%len(order)]], demand, 1, h)
			launched++
			if err != nil {
				refused = err
				continue
			}
			outstanding++
			go func() {
				item, _, err := f.one(wctx, t, id, nil, false)
				results <- attemptResult{item: item, err: err, t: t}
			}()
			return
		}
	}

	if launch(first); outstanding == 0 {
		return Item{}, refused // nothing was attempted
	}
	hedgeC := f.hedgeTimer(order[0])
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
		order = f.routeOrder(id)
	}
	var backoff time.Duration
	if f.hedging != nil {
		backoff = f.hedging.Backoff
	}
	var lastErr, refused error
	for n := 0; n < attempts; n++ {
		h := first
		if lastErr != nil {
			h = retry
		}
		t, err := f.admit(f.backends[order[n%len(order)]], demand, 1, h)
		if err != nil {
			refused = err
			continue // breaker open: skip the slot, keep failing over
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
	if lastErr == nil {
		lastErr = refused // nothing was attempted
	}
	return Item{}, dst, lastErr
}

// --- demand batch path ---------------------------------------------------

// FetchDemandBatch dispatches one session's misses routed to a single
// backend as one demand-priority FetchBatch call, filling the
// caller-supplied out and errs slices (len(ids) each, index-aligned
// with ids) so the engine's batched demand path allocates nothing. The
// semantics are per-key: errs[i] reports key i's outcome, and one bad
// key never fails the batch.
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
// through the full demand path (failover, hedging, breaker), not to a
// batch-wide error: demand keys have a caller waiting on each of them.
// Backends without batch support, single-key batches and batches
// refused by the breaker take the per-key path directly.
func (f *Fabric) FetchDemandBatch(ctx context.Context, backend int, ids []ID, out []Item, errs []error, dst []byte, lens []int) []byte {
	if b := f.backends[backend]; b.batch != nil && len(ids) >= 2 {
		if grown, err := f.batch(ctx, b, demand, ids, out, dst, lens); err == nil {
			clear(errs[:len(ids)])
			return grown
		}
		// Refused, failed or in breach of the contract: one bad reply
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
// backend (already chosen by Route at planning time) as a single
// FetchBatch call when the backend supports it and there are several,
// falling back to sequential single fetches otherwise, and fills
// the caller-supplied out (len(ids)): on success exactly one Item per
// id, in id order. An error — a short or misordered reply included —
// fails the whole batch and is counted in the backend's Errors. dst and
// lens lend a buffer exactly as FetchDemandBatch's do; on an error dst
// is returned as it went. Speculative fetches are single-attempt — no
// hedge, no failover: a lost prefetch costs nothing a demand fetch won't
// recover later, and doubling speculative traffic is exactly what the
// paper warns against.
func (f *Fabric) FetchSpeculativeBatch(ctx context.Context, backend int, ids []ID, out []Item, dst []byte, lens []int) ([]byte, error) {
	b := f.backends[backend]
	if b.batch != nil && len(ids) >= 2 {
		return f.batch(ctx, b, speculative, ids, out, dst, lens)
	}
	grown := dst
	for i, id := range ids {
		t, err := f.admit(b, speculative, 1, first)
		if err != nil {
			// The breaker tripped after this candidate was routed (or the
			// fabric closed): fail fast, queue nothing against a dead origin.
			return dst, err
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
			LatencySeconds:     b.est.latency(),
			LatencyP95Seconds:  b.est.p95Latency(),
			Bandwidth:          b.link.Bandwidth(),
			Rho:                b.link.Rho(now),
			RhoPrime:           b.link.RhoPrime(now),
			BreakerState:       f.breakerState(b),
			BreakerOpens:       b.brOpens.Load(),
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
