package prefetcher

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/predict"
	"repro/internal/prefetch"
	"repro/prefetcher/fetch"
	"repro/prefetcher/internal/store"
)

// ErrClosed is returned by Get after Close.
var ErrClosed = errors.New("prefetcher: engine closed")

// errDropped fails an in-flight registration whose queue slot was shed;
// joiners fall back to a demand fetch.
var errDropped = errors.New("prefetcher: speculative fetch dropped")

// flight is one outstanding fetch (demand or speculative). Joiners wait
// on done; item/err are valid once done is closed.
//
// Flights are pooled (Engine.flightPool): each flight is reference
// counted — one reference for the goroutine that completes it, one per
// joiner — and returns to the pool when the last holder releases it.
// The done channel is closed only when a joiner is actually waiting
// (waiters > 0, tracked under the owning shard's mutex, where both
// registration and completion happen), so in the common uncontended
// case the channel survives the flight's recycling and the whole
// miss-path dedup machinery allocates nothing in steady state.
type flight struct {
	done chan struct{}
	item Item
	err  error
	// waiters counts joiners blocked on done; closed records that done
	// was consumed by a close. Both are guarded by the owning shard's
	// mutex; closed is additionally safe to read after the refcount
	// reaches zero (the atomic decrement orders it).
	waiters int
	closed  bool
	refs    atomic.Int32
}

// job is one queued speculative fetch: n ≥ 1 candidates routed to the
// same backend, ids and fs index-aligned. A batch-capable backend gets a
// dispatch's candidates as one job (one FetchBatch call); any other
// backend gets one job per candidate, so its fetches spread over the
// workers. Jobs are pooled (Engine.jobPool): dispatch draws one when its
// first candidate needs fetching, and from the queue push on the job is
// the worker's — the pusher reads nothing from it afterwards. Whoever
// retires it (runPrefetch, or failJob for a push that failed and for
// Close's drain) hands it back with putJob.
type job struct {
	backend int
	ids     []ID
	fs      []*flight
}

// candBufs is the prediction part of the per-request scratch (see
// multiScratch): a plan's candidates land in cands, and pub is where a
// plugin stages its public-type answer on the way there. Pooling these
// is what makes the predict step of the hot path allocation-free.
type candBufs struct {
	cands []predict.Prediction
	pub   []Prediction
}

// planner is the engine's one contract with its access model, whatever
// WithPredictor received: plan observes ids, in order, and returns the
// top-k candidates conditioned on the last, staged in bufs (k <= 0
// observes only). It has two implementations and New picks one: builtin
// set, NewMarkovPredictor's model unwrapped, or plugin. (A struct and a
// branch rather than an interface: arguments to an interface call
// escape, which would move Get's stack-backed [1]ID to the heap.)
type planner struct {
	builtin *predict.ConcurrentMarkov1
	plugin  Predictor
}

// plan on the built-in model calls it directly. The model predicts as
// part of the observation, conditioned on the id itself — so a racing
// request moving the shared stream context cannot hand this request
// another request's candidates — and linearises the stream it learns
// from internally, so requests on every shard plan in parallel. The
// intermediate ids extend the stream, only the last one predicts, and
// chain conservation holds for a session exactly as it does per
// singleton request.
func (p planner) plan(ids []ID, k int, bufs *candBufs) []predict.Prediction {
	if p.builtin == nil {
		return planPlugin(p.plugin, ids, k, bufs)
	}
	last := len(ids) - 1
	for _, id := range ids[:last] {
		p.builtin.Observe(cache.ID(id))
	}
	return p.builtin.ObserveAndPredictTopInto(cache.ID(ids[last]), k, bufs.cands[:0])
}

// planPlugin plans on an external Predictor: it observes each id, asks
// for the top k into the request's pooled buffer and converts the answer
// to internal predictions. A plugin's answer is input the engine does
// not control, so whatever it holds beyond k is dropped, which keeps the
// conversion inside the pooled buffer's capacity.
func planPlugin(p Predictor, ids []ID, k int, bufs *candBufs) []predict.Prediction {
	for _, id := range ids {
		p.Observe(id)
	}
	cands := bufs.cands[:0]
	if k <= 0 {
		return cands
	}
	preds := p.PredictTopInto(bufs.pub[:0], k)
	if len(preds) > k {
		preds = preds[:k]
	}
	for _, c := range preds {
		cands = append(cands, predict.Prediction{Item: cache.ID(c.ID), Prob: c.Prob})
	}
	return cands
}

// Engine is the concurrent prefetch engine. Create one with New; all
// methods are safe for concurrent use.
//
// Internally the keyed state (cache, in-flight dedup and one record per
// resident carrying its size and used/wasted mark) is partitioned across
// power-of-two shards by a hash of the ID, each behind its own mutex, so
// demand traffic on disjoint keys proceeds in parallel (see WithShards).
// Every fetch that fills it goes through one write core: dispatch
// registers and queues a speculative fetch, land lands it — and a
// demand fetch — in cache and books. The per-shard
// counters are cache-line-padded atomics bumped outside those mutexes,
// which keeps each critical section down to the map/cache touches and
// lets Stats snapshot the engine without taking a single lock. The
// adaptive policy's estimates stay global: one shared
// prefetch.Controller built on atomic counters aggregates λ̂, ŝ̄, ĥ′
// and n̄(F) across shards, so Threshold and Stats report the same
// globally consistent operating point the paper's rule needs regardless
// of the shard count. The shared access model is global too, reached
// through one planner normalised from WithPredictor's argument at New,
// and not serialised: the built-in model or a plugin plans from all
// shards at once, with no lock of the engine's (a Predictor is safe for
// concurrent use).
type Engine struct {
	// fabric is the fetch fabric every demand and speculative fetch
	// goes through: the WithBackends links, or New's fetcher as the one
	// backend "origin".
	fabric *fetch.Fabric
	// planner is the access model; read calls it once per request.
	planner planner
	// predName is captured at New for Stats.Predictor.
	predName    string
	clock       Clock
	policy      prefetch.Policy
	model       analytic.Model
	ctrl        *prefetch.Controller
	nc          float64
	maxPrefetch int
	hook        func(Event)

	epoch time.Time // clock origin for the controller's float64 seconds

	shards     []*shard
	shardShift uint
	// lend records that every shard's cache stores a payload by copy
	// (BytesPutter) and the fabric Lends: fetches are then handed a buffer
	// to read into — the caller's own on the byte views, a worker's
	// scratch for speculative fetches — and land borrowed (see land).
	lend bool
	// residents tracks Σ cache.Len() across shards so the hot path's
	// occupancy estimate n̄(C) — and Stats.CacheLen — need no shard
	// locks.
	residents atomic.Int64

	// flightPool recycles flight objects (and, when no joiner forced a
	// close, their done channels); multiPool recycles the per-request
	// scratch — candidate buffers, per-key states, batch staging and the
	// speculative planning tables; jobPool recycles queued speculative
	// jobs. Together they take the per-request garbage on the hot paths
	// to zero in steady state.
	flightPool sync.Pool
	multiPool  sync.Pool
	jobPool    sync.Pool

	// Session counters for the batched demand path (Stats.MultiGets,
	// Stats.BatchedKeys). Global atomics, not per-shard: a session
	// spans shards by design.
	multiGets   atomic.Int64
	batchedKeys atomic.Int64

	closed atomic.Bool

	baseCtx context.Context
	cancel  context.CancelFunc
	jobs    chan *job
	wg      sync.WaitGroup

	// qmu guards the speculative-fetch quiesce accounting. Lock order:
	// a shard mutex may be held when taking qmu, never the reverse.
	qmu sync.Mutex
	// specPending counts speculative fetches queued or running; idle is
	// closed (and cleared) when it drops to zero, waking Quiesce.
	specPending int
	idle        chan struct{}
}

// New assembles an Engine around the given origin fetcher, which
// becomes the fetch fabric's one backend "origin" on the WithBandwidth
// link (pass nil with WithBackends to name the backends yourself).
// With no options it uses a Markov-1 predictor, the slab store of 1024
// entries in segmented-LRU order (half of each shard protected) behind
// the admission filter prefetchd's store runs, across GOMAXPROCS-derived
// shards, the wall clock and the paper's adaptive threshold policy under
// interaction model A — which requires WithBandwidth, the one parameter with no sensible default.
func New(fetcher Fetcher, opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("prefetcher: nil option")
		}
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if fetcher == nil && len(cfg.backends) == 0 {
		return nil, fmt.Errorf("prefetcher: nil fetcher")
	}
	if fetcher != nil && len(cfg.backends) > 0 {
		return nil, fmt.Errorf("prefetcher: WithBackends replaces the origin fetcher; pass nil to New")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	maxPrefetch := cfg.maxPrefetch
	if _, none := cfg.policy.p.(prefetch.None); none {
		// NoPrefetch can never select a candidate; skip prediction on
		// the hot path entirely rather than predicting into a policy
		// that discards everything.
		maxPrefetch = 0
	}

	// The engine's lifecycle root, cancelled in Close.
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		clock:       cfg.clock,
		policy:      cfg.policy.p,
		model:       cfg.policy.model.analytic(),
		ctrl:        prefetch.NewController(cfg.bandwidth, 0),
		nc:          cfg.nc,
		maxPrefetch: maxPrefetch,
		hook:        cfg.hook,
		epoch:       cfg.clock.Now(),
		baseCtx:     ctx,
		cancel:      cancel,
		jobs:        make(chan *job, cfg.queueDepth),
		shards:      make([]*shard, cfg.shards),
		shardShift:  uint(64 - bits.TrailingZeros(uint(cfg.shards))),
	}
	if builtin, ok := cfg.predictor.(predictorAdapter); ok {
		e.planner.builtin = builtin.m
	} else {
		e.planner.plugin = cfg.predictor
	}
	e.predName = cfg.predictor.Name()
	e.flightPool.New = func() any {
		f := &flight{}
		f.refs.Store(1)
		return f
	}
	e.jobPool.New = func() any { return &job{} }
	bufCap := maxPrefetch
	if bufCap < 1 {
		bufCap = 1
	}
	e.multiPool.New = func() any {
		// A fresh scratch costs three allocations: this struct, cands
		// and — grown by its first gather — states. Under -race
		// sync.Pool drops one Put in four and testing.AllocsPerRun
		// integer-divides, so the hit-path gates that run under -race
		// (TestGetHitAllocFree and the byte-path ones) pass only while
		// 3/4 truncates to 0: anything a hit needs besides those three
		// is backed inline by the struct (gids0, the plan's staging),
		// never by a fourth allocation.
		sc := &multiScratch{}
		sc.cands = make([]predict.Prediction, 0, bufCap)
		sc.gids = sc.gids0[:0]
		if e.planner.plugin != nil { // only plugins stage public predictions
			sc.pub = make([]Prediction, 0, bufCap)
		}
		return sc
	}
	for i := range e.shards {
		var c Cache
		switch {
		case cfg.cache != nil:
			c = cfg.cache // validate guarantees a single shard
		case cfg.cacheFactory != nil:
			if c = cfg.cacheFactory(i, cfg.shards); c == nil {
				cancel()
				return nil, fmt.Errorf("prefetcher: cache factory returned nil for shard %d", i)
			}
			// A shared instance would be mutated under two different
			// shard locks — a data race with a misrouted eviction
			// callback. Catch the easy closure mistake of returning one
			// captured cache. (Interface equality is safe here: it can
			// only panic for two values of the same non-comparable
			// dynamic type, which the Comparable check excludes.)
			if reflect.TypeOf(c).Comparable() {
				for j, prev := range e.shards[:i] {
					if prev.cache == c {
						cancel()
						return nil, fmt.Errorf("prefetcher: cache factory returned the same Cache for shards %d and %d; each shard needs its own instance", j, i)
					}
				}
			}
		default:
			c = store.NewFiltered(max(defaultCacheCapacity/cfg.shards, 1))
		}
		sh := newShard(c)
		c.OnEvict(e.onEvict(sh))
		e.shards[i] = sh
		e.residents.Add(int64(c.Len())) // prewarmed caches start non-empty
	}
	// The fabric is built last, so every earlier construction failure
	// returns without anything to tear down (cancel() alone suffices —
	// no workers, no fabric).
	var err error
	if e.fabric, err = e.newFabric(fetcher, cfg); err != nil {
		cancel()
		return nil, err
	}
	e.lend = e.fabric.Lends() && !slices.ContainsFunc(e.shards, func(sh *shard) bool { return sh.pcache == nil })
	for i := 0; i < cfg.workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// now returns the clock reading as seconds since the engine's epoch.
func (e *Engine) now() float64 { return e.clock.Now().Sub(e.epoch).Seconds() }

// newFlight draws a flight from the pool, giving it a fresh done
// channel only when the previous use consumed one (a joiner forced a
// close).
func (e *Engine) newFlight() *flight {
	f := e.flightPool.Get().(*flight)
	if f.done == nil {
		// replaces the done channel a joiner consumed; pure hit paths never reach a flight
		f.done = make(chan struct{})
	}
	return f
}

// releaseFlight drops one reference; the last holder resets the flight
// and returns it to the pool. Reading f's fields after the decrement is
// safe for the last holder: every other holder's accesses happened
// before its own decrement.
func (e *Engine) releaseFlight(f *flight) {
	if f.refs.Add(-1) != 0 {
		return
	}
	if f.closed {
		f.done = nil // consumed by close; the next use allocates afresh
	}
	f.item = Item{} // drop the payload reference
	f.err = nil
	f.waiters = 0
	f.closed = false
	f.refs.Store(1)
	e.flightPool.Put(f)
}

// Get serves one demand request: it records the request with the online
// estimators, returns the item from cache or fetches it (joining an
// in-flight speculative fetch for the same id if one is pending), then
// — once the item is served — dispatches speculative fetches for every
// prediction the policy admits at the current threshold. ctx bounds
// only this call's demand fetch or join wait; speculative fetches run
// under the engine's own context.
//
// Get is the read core's fan-out-1 view (see read): the cache-hit path
// is allocation-free — prediction candidates and the key's state live
// in pooled scratch, the critical section touches only the shard's
// maps, and all counter bumps and estimator folds happen on atomics
// outside it.
func (e *Engine) Get(ctx context.Context, id ID) (Item, error) {
	ids := [1]ID{id}
	var one [1]Item
	out, _, err := e.read(ctx, ids[:], sink{items: one[:0]}, nil)
	if err != nil {
		return Item{}, soleKeyError(err)
	}
	return out.items[0], nil
}

// joinOrRegister returns the in-flight fetch for id (taking a joiner
// reference on it) or, when none is pending, registers a fresh flight
// the caller now owns. Called with sh.mu held.
func (sh *shard) joinOrRegister(e *Engine, id ID) (f *flight, owner bool) {
	if f = sh.inflight[id]; f != nil {
		f.waiters++
		f.refs.Add(1)
		return f, false
	}
	f = e.newFlight()
	sh.inflight[id] = f
	sh.inflightN.Add(1)
	return f, true
}

// awaitFlight waits for an in-flight fetch this request joined,
// releasing the joiner's reference once the outcome is read. resolved
// is false when the flight failed or was dropped — the caller should
// re-check the shard state and possibly demand-fetch.
func (e *Engine) awaitFlight(ctx context.Context, f *flight) (Item, error, bool) {
	select {
	case <-f.done:
	case <-ctx.Done():
		e.releaseFlight(f)
		return Item{}, ctx.Err(), true
	}
	item, err := f.item, f.err
	e.releaseFlight(f)
	if err != nil {
		return Item{}, nil, false
	}
	return item, nil, true
}

// land lands one finished fetch for a flight the caller owns — the one
// way an item enters the cache. Under one hold of the shard lock the
// item is cached and its record written (after putCache: a Put may
// report evictions, id's previous incarnation included, and onEvict
// would drop a record written first), or nothing is — a failed fetch,
// or a demand landing the store's admission filter turned away, which
// the flight still serves; either way the flight is deregistered and
// resolved. The books are told outside the
// lock, and only there do the two classes of fetch differ: a
// speculative landing leaves its record unused — the Section-4 tag is
// withheld until a demand request consumes it — and counts toward n̄(F)
// or the error counter; a demand landing is the miss its request
// counted on arrival, so it folds the untagged access and the size the
// arrival could not know, and a demand error is the caller's to report.
//
// A borrowed payload is lent: bytes in a buffer that is its lender's
// again when land returns, item.Data nil. Nothing the engine keeps may
// point into it: the cache copies it (BytesPutter), and the flight's
// joiners — waiters is final under the lock that takes the flight off
// the table — get a clone, made only when there are any.
func (e *Engine) land(sh *shard, id ID, f *flight, item Item, lent []byte, borrowed bool, err error, speculative bool) (Item, error) {
	if err != nil {
		item = Item{}
	} else {
		item.ID = id
		if item.Size <= 0 {
			item.Size = 1
		}
	}
	sh.mu.Lock()
	if err == nil {
		if e.putCache(sh, id, item.Data, lent, borrowed, speculative) {
			sh.records[id] = resident{size: item.Size, unused: speculative}
		}
		f.item = item
		if borrowed && f.waiters > 0 {
			f.item.Data = bytes.Clone(lent)
		}
	}
	sh.resolveLocked(id, f, err)
	sh.mu.Unlock()
	e.releaseFlight(f)

	switch {
	case speculative && err != nil:
		sh.prefetchErrors.Add(1)
		e.emit(Event{Type: EventPrefetchError, ID: id, Err: err})
	case speculative:
		e.ctrl.RecordPrefetch()
		e.emit(Event{Type: EventPrefetchDone, ID: id})
	case err == nil:
		e.ctrl.Estimator().CountAccess(false)
		e.ctrl.RecordSize(item.Size)
		e.emit(Event{Type: EventMiss, ID: id})
	}
	return item, err
}

// maxLentBufBytes caps the scratch a speculative worker keeps between
// jobs: one huge object must not pin its buffer for the engine's life.
const maxLentBufBytes = 1 << 20

// workerScratch is what one speculative worker keeps across jobs: the
// batch staging and, when the engine lends, the buffer (and its per-key
// lengths) each job's payloads are read into on their way to the cache.
type workerScratch struct {
	items []Item
	lens  []int
	buf   []byte
}

// worker runs speculative fetches until the engine closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	var w workerScratch
	for {
		select {
		case <-e.baseCtx.Done():
			return
		case j := <-e.jobs:
			e.runPrefetch(j, &w)
		}
	}
}

// runPrefetch executes one queued job under the engine context — as one
// fabric call, which is synchronous, so the job's id slice is free to
// recycle once it returns — lands every flight it carried and retires
// the job.
func (e *Engine) runPrefetch(j *job, w *workerScratch) {
	n := len(j.ids)
	w.items = slices.Grow(w.items[:0], n)[:n]
	var lens []int
	if e.lend {
		w.lens = slices.Grow(w.lens[:0], n)[:n]
		lens = w.lens
	}
	buf, err := e.fabric.FetchSpeculativeBatch(e.baseCtx, j.backend, j.ids, w.items, w.buf[:0], lens)
	off := 0
	for i, id := range j.ids {
		var item Item
		var lent []byte
		if err == nil {
			item = w.items[i]
			if e.lend {
				lent, off = buf[off:off+lens[i]], off+lens[i]
			}
		}
		e.land(e.shardFor(id), id, j.fs[i], item, lent, e.lend, err, true)
		e.specDone()
	}
	clear(w.items) // the staging must not pin landed payloads
	if w.buf = buf; cap(buf) > maxLentBufBytes {
		w.buf = nil
	}
	e.putJob(j)
}

// specAdd registers n queued speculative fetches with the quiesce
// accounting.
func (e *Engine) specAdd(n int) {
	e.qmu.Lock()
	e.specPending += n
	e.qmu.Unlock()
}

// specDone retires one speculative fetch and wakes Quiesce waiters when
// none remain.
func (e *Engine) specDone() {
	e.qmu.Lock()
	e.specPending--
	if e.specPending == 0 && e.idle != nil {
		close(e.idle)
		e.idle = nil
	}
	e.qmu.Unlock()
}

// occupancy returns n̄(C): the configured value if set, else the live
// resident count aggregated across shards.
func (e *Engine) occupancy() float64 {
	if e.nc > 0 {
		return e.nc
	}
	return float64(e.residents.Load())
}

// emit delivers one event to the hook outside the engine's locks.
func (e *Engine) emit(ev Event) {
	if e.hook != nil {
		e.hook(ev)
	}
}

// Threshold returns the paper's cutoff p̂_th for the engine's
// interaction model at the controller's global ρ̂′ = (1−ĥ′)λ̂ŝ̄/b, b
// being WithBandwidth's — the same reading as Stats.Threshold. It is not
// the threshold admission runs on: that substitutes the fabric's ρ̂′,
// the bandwidth-weighted mean of the links' own (Stats.Backends[i].RhoPrime).
func (e *Engine) Threshold() float64 {
	return prefetch.ThresholdFor(e.model, e.ctrl.State(e.occupancy()))
}

// Stats snapshots the engine's counters and online estimates. The
// snapshot is wait-free: the estimates and Threshold come from one
// controller State (mutually consistent), and the counters are padded
// atomics summed without taking a single shard lock — Stats never
// stalls the hot path, and the hot path never stalls Stats. Each
// request bumps its shard's request counter before its outcome counter
// and Stats reads the outcome counters first, so Hits+Misses ≤ Requests
// and the derived ratios stay in [0,1] even mid-flight (sole exception:
// a job spanning several shards has its issued counters settled after
// the push for every shard but its anchor's, so Accuracy can
// transiently overshoot there); after Quiesce (or any pause in traffic)
// the counts are exact.
func (e *Engine) Stats() Stats {
	st := e.ctrl.State(e.occupancy())
	s := Stats{
		Lambda:    st.Lambda,
		MeanSize:  st.MeanSize,
		HPrime:    st.HPrime,
		RhoPrime:  st.RhoPrime,
		NF:        st.NF,
		Threshold: prefetch.ThresholdFor(e.model, st),
		Shards:    len(e.shards),
		Predictor: e.predName,
	}
	for _, sh := range e.shards {
		// Read order mirrors bump order in reverse: a consequence
		// counter (hits, used, errors) is always bumped after the
		// counter it is a consequence of (requests, issued), so reading
		// consequences first keeps Hits+Misses ≤ Requests and
		// Used+Wasted ≤ Issued in mid-flight snapshots. (The one
		// exception is the shards other than the anchor of a
		// multi-shard job: dispatch bumps their issued counters after
		// the push, so a mid-flight snapshot can briefly lag Issued
		// behind Used there.)
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Joins += sh.joins.Load()
		s.PrefetchUsed += sh.prefetchUsed.Load()
		s.PrefetchWasted += sh.prefetchWasted.Load()
		s.PrefetchDropped += sh.prefetchDropped.Load()
		s.PrefetchErrors += sh.prefetchErrors.Load()
		s.InFlight += int(sh.inflightN.Load())
		s.PrefetchIssued += sh.prefetchIssued.Load()
		s.Requests += sh.requests.Load()
	}
	s.CacheLen = int(e.residents.Load())
	s.MultiGets = e.multiGets.Load()
	s.BatchedKeys = e.batchedKeys.Load()
	s.Backends = e.fabric.Stats(e.now())
	return s
}

// Quiesce blocks until no speculative fetches are queued or in flight,
// or ctx expires. Demand fetches are not waited for — they complete
// under their callers' contexts.
func (e *Engine) Quiesce(ctx context.Context) error {
	for {
		e.qmu.Lock()
		if e.specPending == 0 {
			e.qmu.Unlock()
			return nil
		}
		if e.idle == nil {
			e.idle = make(chan struct{})
		}
		ch := e.idle
		e.qmu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops the worker pool, cancels outstanding speculative fetches
// and fails their joiners. Demand fetches already in progress complete
// under their callers' contexts. Close is idempotent.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}

	// Barrier: dispatch, the one sender on the job queue, re-checks the
	// closed flag under a shard mutex before pushing. Cycling each
	// shard's lock therefore waits out any goroutine that passed the
	// check before the flag flipped — after this loop, no new job can
	// enter the queue and the drain below cannot race a late producer.
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.mu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	}

	e.cancel()
	e.wg.Wait()

	// Fail queued jobs whose worker never picked them up.
drain:
	for {
		select {
		case j := <-e.jobs:
			e.failJob(j, ErrClosed)
		default:
			break drain
		}
	}
	return e.fabric.Close()
}
