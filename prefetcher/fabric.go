package prefetcher

import (
	"slices"

	"repro/internal/predict"
	"repro/prefetcher/fetch"
)

// This file wires the fetch fabric (package prefetcher/fetch) into the
// engine: construction from the configured backends, the speculative
// dispatch path with per-link admission thresholds, batch coalescing,
// and the idle-gate release callback. The demand side is the read
// core's two calls (multi.go): FetchDemandBatch for a request's owned
// misses, Fetch for a key whose joined flight failed.

// newFabric assembles the engine's fetch fabric from the validated
// config: the WithBackends links, or fetcher as the one backend
// "origin" on the engine's configured link. Called from New after
// e.epoch is set, so the fabric's link estimates share the
// controller's timeline.
func (e *Engine) newFabric(fetcher Fetcher, cfg *config) (*fetch.Fabric, error) {
	backends := cfg.backends
	if len(backends) == 0 {
		backends = []fetch.Backend{{Name: "origin", Fetcher: fetcher, Bandwidth: cfg.bandwidth}}
	}
	return fetch.New(fetch.Config{
		Backends:      backends,
		Routing:       cfg.routing,
		Hedging:       cfg.hedging,
		IdleWatermark: cfg.idleWatermark,
		Breaker:       cfg.breaker,
		Alpha:         cfg.alpha,
		Now:           e.now,
		OnRelease:     e.releaseDeferred,
	})
}

// routeScratch is the pooled planning state for one routed dispatch
// pass: the per-backend partition and selection tables, the flattened
// global-cap sort buffer and keep set, and the id staging buffer.
// Pooling it is what keeps speculative planning allocation-free in
// steady state (gated by TestFabricBatchDispatchAllocFree).
type routeScratch struct {
	groups [][]predict.Prediction
	sels   [][]predict.Prediction
	flat   []predict.Prediction
	keep   map[ID]bool
	ids    []ID
}

//prefetch:hotpath
func (e *Engine) getRoute() *routeScratch { return e.routePool.Get().(*routeScratch) }

//prefetch:hotpath
func (e *Engine) putRoute(sc *routeScratch) { e.routePool.Put(sc) }

//prefetch:hotpath
func (e *Engine) getBatch() *batchJob { return e.batchPool.Get().(*batchJob) }

// putBatch resets a batch job and returns it to the pool; the flight
// pointers are cleared so a pooled job does not pin resolved flights.
//
//prefetch:hotpath
func (e *Engine) putBatch(bj *batchJob) {
	clear(bj.fs)
	bj.ids, bj.fs = bj.ids[:0], bj.fs[:0]
	e.batchPool.Put(bj)
}

// compareByProb orders predictions most-probable first (ties by id).
// Package-level so the hot sort does not allocate a closure.
func compareByProb(a, b predict.Prediction) int {
	switch {
	case a.Prob > b.Prob || (a.Prob == b.Prob && a.Item < b.Item):
		return -1
	default:
		return 1
	}
}

// schedule filters a request's candidates through the policy and
// dispatches the admitted ones: candidates are partitioned by the
// backend the router would fetch them from, each group is admitted
// against the threshold computed from *that link's* ρ̂′ — the load the
// candidate's own fetch would compete with — and the admitted ones are
// dispatched per backend: parked when the link sits above the idle
// watermark, coalesced into one batch call when the backend supports
// it, individual jobs otherwise. Each candidate is registered under
// its own shard's lock; at most one shard mutex is held at a time. All
// planning state lives in a pooled routeScratch, so the pass allocates
// nothing in steady state. now is the time the link estimates are read
// at: a hit passes its arrival reading (one clock read per hit), a path
// that waited on a fetch reads the clock afresh.
//
//prefetch:hotpath
func (e *Engine) schedule(cands []predict.Prediction, now float64) {
	if len(cands) == 0 {
		return
	}
	nb := e.fabric.NumBackends()
	nc := e.occupancy()

	if nb == 1 {
		// Single backend (every engine built from one Fetcher): no
		// partitioning to do, and when the link is open and not
		// batch-capable the dispatch loop below needs no scratch at all.
		st := e.ctrl.StateForLink(e.fabric.Link(0), now, nc)
		sel := e.policy.Select(cands, st)
		if len(sel) > e.maxPrefetch {
			sel = sel[:e.maxPrefetch]
		}
		if len(sel) == 0 {
			return
		}
		if !e.fabric.Busy(0) && !e.fabric.BatchCapable(0) {
			for _, c := range sel {
				if !e.enqueue(ID(c.Item), 0) {
					return
				}
			}
			return
		}
		sc := e.getRoute()
		ids := sc.ids[:0]
		for _, c := range sel {
			ids = append(ids, ID(c.Item))
		}
		sc.ids = ids
		e.deferOrDispatch(0, ids)
		e.putRoute(sc)
		return
	}

	sc := e.getRoute()
	defer e.putRoute(sc)
	if cap(sc.groups) < nb {
		// First pass at this backend count: size the per-backend tables
		// once; every later pass reslices the same backing.
		//lint:allow hotpathalloc scratch growth to the backend count, first pass only
		sc.groups = make([][]predict.Prediction, nb)
		//lint:allow hotpathalloc scratch growth to the backend count, first pass only
		sc.sels = make([][]predict.Prediction, nb)
	}
	groups, sels := sc.groups[:nb], sc.sels[:nb]
	for b := range groups {
		groups[b], sels[b] = groups[b][:0], sels[b][:0]
	}
	for _, c := range cands {
		b := e.fabric.Route(ID(c.Item))
		groups[b] = append(groups[b], c)
	}
	total := 0
	for b, g := range groups {
		if len(g) == 0 {
			continue
		}
		st := e.ctrl.StateForLink(e.fabric.Link(b), now, nc)
		sel := e.policy.Select(g, st)
		if len(sel) > e.maxPrefetch {
			sel = sel[:e.maxPrefetch]
		}
		sels[b] = sel
		total += len(sel)
	}
	// The per-request cap is global: when per-link admission together
	// exceeds it, keep the most probable candidates across links.
	if total > e.maxPrefetch {
		flat := sc.flat[:0]
		for _, sel := range sels {
			flat = append(flat, sel...)
		}
		sc.flat = flat
		slices.SortFunc(flat, compareByProb)
		if sc.keep == nil {
			//lint:allow hotpathalloc keep set created once per scratch, cleared and reused across passes
			sc.keep = make(map[ID]bool, e.maxPrefetch)
		}
		keep := sc.keep
		clear(keep)
		for _, c := range flat[:e.maxPrefetch] {
			keep[ID(c.Item)] = true
		}
		for b, sel := range sels {
			kept := sel[:0]
			for _, c := range sel {
				if keep[ID(c.Item)] {
					kept = append(kept, c)
				}
			}
			sels[b] = kept
		}
	}
	for b, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		// One staging buffer serves every backend in turn:
		// deferOrDispatch consumes the ids synchronously (they are
		// copied into the batch job, the park queue or the job struct)
		// so the buffer is free again by the next iteration.
		ids := sc.ids[:0]
		for _, c := range sel {
			ids = append(ids, ID(c.Item))
		}
		sc.ids = ids
		e.deferOrDispatch(b, ids)
	}
}

// deferOrDispatch lands one backend's admitted candidates: parked with
// the idle gate while the link is in a busy period, dispatched to the
// worker pool otherwise.
//
//prefetch:hotpath
func (e *Engine) deferOrDispatch(b int, ids []ID) {
	if e.fabric.Busy(b) {
		// The link is in a busy period: park the candidates with
		// the fabric's idle gate instead of adding speculative
		// traffic on top of demand load. No flight is registered —
		// a demand Get for a parked id simply fetches it. Resident
		// and in-flight candidates are filtered first (the same
		// dedup dispatch applies), so the Deferred count and the
		// bounded queue only carry work an idle period could
		// actually use; the fabric additionally drops ids already
		// parked. The filter compacts ids in place — it is the caller's
		// staging buffer, dead once this call returns — and Defer copies
		// the accepted ids into its park queue.
		park := ids[:0]
		for _, id := range ids {
			sh := e.shardFor(id)
			sh.mu.Lock()
			_, inflight := sh.inflight[id]
			resident := sh.cache.Contains(id)
			sh.mu.Unlock()
			if !inflight && !resident {
				park = append(park, id)
			}
		}
		if len(park) > 0 {
			for _, id := range e.fabric.Defer(b, park...) {
				e.emit(Event{Type: EventPrefetchDeferred, ID: id})
			}
		}
		return
	}
	e.dispatchRouted(b, ids)
}

// dispatchRouted registers flights for the given candidates and hands
// them to the worker pool: one batch job when the backend can coalesce
// and more than one candidate survived dedup, individual jobs
// otherwise. Also the landing path for idle-gate releases. The batch
// job is pooled: ownership passes to the worker with the queue push and
// the job returns to the pool when its fetch completes (or when it is
// dropped, failed or degenerates to a single-id job here).
//
//prefetch:hotpath
func (e *Engine) dispatchRouted(backend int, ids []ID) {
	if len(ids) < 2 || !e.fabric.BatchCapable(backend) {
		for _, id := range ids {
			e.enqueue(id, backend)
		}
		return
	}
	// Register a flight per id first (one shard lock at a time), then
	// enqueue the whole batch as one job. Registration and queue push
	// cannot share one critical section across shards, so the counters
	// are settled per id after the push: issued on success, dropped —
	// with the flight failed so joiners fall back to a demand fetch —
	// when the queue is full or the engine closed underneath us.
	bj := e.getBatch()
	bj.backend = backend
	for _, id := range ids {
		sh := e.shardFor(id)
		sh.mu.Lock()
		if e.closed.Load() {
			sh.mu.Unlock()
			e.failBatch(bj, ErrClosed)
			e.putBatch(bj)
			return
		}
		if sh.cache.Contains(id) {
			sh.mu.Unlock()
			continue
		}
		if _, ok := sh.inflight[id]; ok {
			sh.mu.Unlock()
			continue
		}
		f := e.newFlight()
		sh.inflight[id] = f
		sh.inflightN.Add(1)
		sh.mu.Unlock()
		bj.ids = append(bj.ids, id)
		bj.fs = append(bj.fs, f)
	}
	switch len(bj.ids) {
	case 0:
		e.putBatch(bj)
		return
	case 1:
		j := job{id: bj.ids[0], f: bj.fs[0], backend: backend}
		e.putBatch(bj)
		e.finishEnqueue(j)
		return
	}
	e.finishEnqueue(job{batch: bj})
}

// finishEnqueue pushes a job whose flights are already registered and
// settles the per-id accounting for the outcome. Two invariants from
// the single-item path are preserved across the multi-shard batch:
// the quiesce count covers every flight *before* a worker can retire
// it (specAdd precedes the push; a failed push undoes it), and the
// push happens under a shard lock with the closed flag re-checked, so
// Close's lock-cycling barrier still guarantees no job enters the
// queue after the drain — a batch that loses that race fails its
// flights with ErrClosed instead.
//
//prefetch:hotpath
func (e *Engine) finishEnqueue(j job) {
	// Stack staging for the single-job case; a batch brings its own
	// pooled slices.
	var idbuf [1]ID
	var fbuf [1]*flight
	ids, fs := idbuf[:], fbuf[:]
	ids[0], fs[0] = j.id, j.f
	if j.batch != nil {
		ids, fs = j.batch.ids, j.batch.fs
	}
	for range ids {
		e.specAdd()
	}
	anchor := e.shardFor(ids[0])
	anchor.mu.Lock()
	closed := e.closed.Load()
	pushed := false
	if !closed {
		select {
		case e.jobs <- j:
			pushed = true
		default: // queue full: shed, never block
		}
	}
	anchor.mu.Unlock()
	if pushed {
		// The issued counters trail the push; a worker may even
		// complete a flight before its counter lands. Stats only sums
		// monotonic counters, so the lag is invisible outside a
		// mid-flight snapshot.
		for _, id := range ids {
			sh := e.shardFor(id)
			sh.prefetchIssued.Add(1)
			e.emit(Event{Type: EventPrefetchIssued, ID: id})
		}
		return
	}
	err := errDropped
	if closed {
		err = ErrClosed
	}
	for i, id := range ids {
		sh := e.shardFor(id)
		sh.mu.Lock()
		if sh.inflight[id] == fs[i] {
			delete(sh.inflight, id)
			sh.inflightN.Add(-1)
		}
		fs[i].err = err
		fs[i].resolveLocked()
		sh.mu.Unlock()
		e.releaseFlight(fs[i])
		e.specDone()
		if !closed {
			sh.prefetchDropped.Add(1)
			e.emit(Event{Type: EventPrefetchDropped, ID: id})
		}
	}
	// The push failed, so no worker will ever own this batch.
	if j.batch != nil {
		e.putBatch(j.batch)
	}
}

// failBatch deregisters and fails every flight already registered for
// a batch that cannot be dispatched.
func (e *Engine) failBatch(bj *batchJob, err error) {
	for i, id := range bj.ids {
		sh := e.shardFor(id)
		sh.mu.Lock()
		if sh.inflight[id] == bj.fs[i] {
			delete(sh.inflight, id)
			sh.inflightN.Add(-1)
		}
		bj.fs[i].err = err
		bj.fs[i].resolveLocked()
		sh.mu.Unlock()
		e.releaseFlight(bj.fs[i])
	}
}

// releaseDeferred is the fabric's idle-gate callback: candidates
// parked during a busy period re-enter the normal dispatch path once
// their link idles. Dedup against the cache and in-flight table
// happens in dispatchRouted; the admission decision was made when the
// candidate was planned and is not revisited.
func (e *Engine) releaseDeferred(backend int, ids []ID) {
	if e.closed.Load() {
		return // dispatchRouted re-checks under the shard locks
	}
	e.dispatchRouted(backend, ids)
}

// runPrefetchBatch executes one coalesced speculative fetch and
// completes every flight it carried, then retires the pooled job. The
// fabric's batch call is synchronous (no hedge goroutine outlives it),
// so the job's id slice is free to recycle once it returns.
func (e *Engine) runPrefetchBatch(bj *batchJob) {
	items, err := e.fabric.FetchSpeculativeBatch(e.baseCtx, bj.backend, bj.ids)
	for i, id := range bj.ids {
		var item Item
		if err == nil {
			item = items[i]
		}
		e.completePrefetch(id, bj.fs[i], item, err)
		e.specDone()
	}
	e.putBatch(bj)
}
