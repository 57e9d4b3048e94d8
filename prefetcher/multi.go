package prefetcher

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/predict"
)

// This file is the batched demand path: GetMulti serves a correlated
// multi-key "session" (a page load fanning out to N keys) in one pass
// instead of N independent Gets. The work splits into four layers —
// a shard gather that classifies every key hit/join/miss taking each
// shard lock once, miss coalescing that hands each backend's share of
// the misses to FetchBatch as a single demand batch, an optional
// demand-dedup merge window that folds overlapping concurrent sessions
// into one backend batch (WithDemandCoalescing), and accounting that
// feeds the predictor one linearised observation sequence per session
// so the Markov chain sees the same stream N singleton Gets would have
// produced. All per-session scratch is pooled; the all-hit path
// allocates nothing in steady state (gated by TestGetMultiAllocFree).

// KeyError reports the failure of one key of a GetMulti session.
type KeyError struct {
	// Index is the key's position in the session's ids slice; ID the
	// key itself.
	Index int
	ID    ID
	// Err is the per-key cause (an origin error, the caller's context
	// error, or ErrClosed).
	Err error
}

// Error implements error.
func (k KeyError) Error() string {
	return fmt.Sprintf("prefetcher: key %d (index %d): %v", k.ID, k.Index, k.Err)
}

// Unwrap exposes the per-key cause to errors.Is/As.
func (k KeyError) Unwrap() error { return k.Err }

// MultiError aggregates the failed keys of a GetMulti session. The
// session's other keys were served normally — the caller decides
// per key whether a zero Item matters.
type MultiError struct {
	// Errors holds one entry per failed key, in session order.
	Errors []KeyError
}

// Error implements error.
func (m *MultiError) Error() string {
	if len(m.Errors) == 1 {
		return m.Errors[0].Error()
	}
	return fmt.Sprintf("prefetcher: %d keys failed (first: %v)", len(m.Errors), m.Errors[0])
}

// Unwrap exposes the per-key errors to errors.Is/As.
func (m *MultiError) Unwrap() []error {
	errs := make([]error, len(m.Errors))
	for i, k := range m.Errors {
		errs[i] = k
	}
	return errs
}

// multiKey classification states. A key moves mkPending → one of
// hit/join/owner/merged in the gather, then → mkDone once its item or
// error is final.
const (
	mkPending uint8 = iota
	mkHit           // served from cache inside the gather's critical section
	mkJoin          // attached to a flight another request owns
	mkOwner         // this session owns the flight; fetched on the batch path
	mkMerged        // owner handed to the merge window; awaited like a join
	mkDone          // item/err final
)

// multiKey is one session key's classification and outcome.
type multiKey struct {
	sh      *shard
	f       *flight
	item    Item
	err     error
	backend int
	kind    uint8
	used    bool // hit consumed a prefetched-unused entry
	// Byte-mode (GetMultiBytes) outcome: inBuf marks a payload already
	// appended to the session buffer at [off, off+blen).
	off, blen int
	inBuf     bool
}

// multiScratch is the pooled per-session state: the per-key
// classification table and the staging buffers for batch dispatch.
// Pooling it is what keeps GetMulti's all-hit path allocation-free.
type multiScratch struct {
	states []multiKey
	gids   []ID  // one backend's share of the misses
	gidx   []int // indices into states, aligned with gids
	bout   []Item
	berrs  []error
	mids   []ID // a merge leader's taken batch
	mfs    []*flight
}

//prefetch:hotpath
func (e *Engine) getMulti() *multiScratch { return e.multiPool.Get().(*multiScratch) }

// putMulti clears the payload, flight and error references a session
// staged (pooled scratch must not pin cached data or resolved flights)
// and returns the scratch to the pool.
//
//prefetch:hotpath
func (e *Engine) putMulti(sc *multiScratch) {
	clear(sc.states)
	sc.states = sc.states[:0]
	sc.gids, sc.gidx = sc.gids[:0], sc.gidx[:0]
	clear(sc.bout)
	sc.bout = sc.bout[:0]
	clear(sc.berrs)
	sc.berrs = sc.berrs[:0]
	sc.mids = sc.mids[:0]
	clear(sc.mfs)
	sc.mfs = sc.mfs[:0]
	e.multiPool.Put(sc)
}

// GetMulti serves one session of correlated demand keys and returns
// one Item per id, index-aligned with ids. Keys resident in cache are
// served under a single pass over the shards; missing keys are
// coalesced per backend into demand FetchBatch calls (joining any
// in-flight fetches, so concurrent sessions and singleton Gets for the
// same key share one origin call). Failures are per key: the returned
// error is nil when every key was served, else a *MultiError listing
// the failed keys — whose Items are zero — while the rest of the
// session is intact. The predictor observes the session's ids as one
// linearised sequence and speculative planning happens once, from the
// session's last id.
func (e *Engine) GetMulti(ctx context.Context, ids []ID) ([]Item, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	return e.GetMultiInto(ctx, ids, make([]Item, 0, len(ids)))
}

// GetMultiInto is GetMulti appending into a caller-supplied buffer
// (passed as dst[:0] semantics: dst is truncated and one Item per id
// appended), so steady-state callers reusing their result slice keep
// the all-hit session allocation-free.
//
//prefetch:hotpath
func (e *Engine) GetMultiInto(ctx context.Context, ids []ID, dst []Item) ([]Item, error) {
	dst = dst[:0]
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if e.closed.Load() {
		return dst, ErrClosed
	}
	if len(ids) == 0 {
		return dst, nil
	}
	e.multiGets.Add(1)
	now := e.now()
	bufs := e.getBufs()
	cands := e.observeMulti(ids, bufs)
	sc := e.getMulti()
	misses := e.gatherMulti(ids, now, sc, nil)
	if misses > 0 {
		e.fetchMultiMisses(ctx, ids, sc)
		now = e.now() // the session waited on fetches
	}
	nerr := 0
	states := sc.states
	for i := range ids {
		dst = append(dst, states[i].item)
		if states[i].err != nil {
			nerr++
		}
	}
	var err error
	if nerr > 0 {
		err = buildMultiError(ids, states, nerr)
	}
	e.schedule(cands, now)
	e.putMulti(sc)
	e.putBufs(bufs)
	return dst, err
}

// buildMultiError assembles the session's per-key error report. Only
// reached when at least one key failed, so its allocations never touch
// the all-hit path.
func buildMultiError(ids []ID, states []multiKey, nerr int) error {
	//lint:allow hotpathalloc error construction on the per-key failure path only
	errs := make([]KeyError, 0, nerr)
	for i := range ids {
		if states[i].err != nil {
			//lint:allow hotpathalloc error construction on the per-key failure path only
			errs = append(errs, KeyError{Index: i, ID: ids[i], Err: states[i].err})
		}
	}
	//lint:allow hotpathalloc error construction on the per-key failure path only
	return &MultiError{Errors: errs}
}

// observeMulti feeds the session's ids into the shared access model as
// one linearised sequence — the same observation stream N singleton
// Gets would produce — and returns the candidate set predicted from
// the session's last id (the session's one speculative plan).
//
//prefetch:hotpath
func (e *Engine) observeMulti(ids []ID, bufs *candBufs) []predict.Prediction {
	last := len(ids) - 1
	if e.predFree {
		if e.ipredCoupled != nil {
			// k <= 0 observes without predicting: the intermediate ids
			// extend the stream, only the last one plans. The coupled
			// call keeps each observation atomic with respect to racing
			// Gets, so chain conservation holds for the session exactly
			// as it does per singleton request.
			for _, id := range ids[:last] {
				e.ipredCoupled.ObserveAndPredictTopInto(cache.ID(id), 0, bufs.cands[:0])
			}
			return e.ipredCoupled.ObserveAndPredictTopInto(cache.ID(ids[last]), e.maxPrefetch, bufs.cands[:0])
		}
		for _, id := range ids[:last] {
			e.observeOnly(id)
		}
		return e.observeAndPredictLocked(ids[last], bufs)
	}
	// Plain predictor: the whole session is one predMu critical
	// section, so no concurrent request can interleave inside the
	// session's observation sequence.
	e.predMu.Lock()
	for _, id := range ids[:last] {
		e.observeOnly(id)
	}
	cands := e.observeAndPredictLocked(ids[last], bufs)
	e.predMu.Unlock()
	return cands
}

// observeOnly records one intermediate session id with the access
// model without asking for candidates.
//
//prefetch:hotpath
func (e *Engine) observeOnly(id ID) {
	if e.ipred != nil {
		e.ipred.Observe(cache.ID(id))
		return
	}
	e.pred.Observe(id)
}

// gatherMulti classifies the session's keys shard by shard: each pass
// takes one shard's lock once and classifies every still-pending
// session key living there — hits are served inside that single
// critical section, misses either join the in-flight fetch for their
// key or register this session's own flight (handed to the merge
// window when one is configured). Counter bumps and estimator folds
// happen after the locks drop, on atomics, each key bumping requests
// before its outcome counter exactly like the singleton paths.
// Returns how many keys still need the miss path.
//
// bsink selects the output mode: nil serves hits as boxed Items
// (GetMulti); non-nil is GetMultiBytes' byte mode — hit payloads are
// appended to *bsink inside the critical section (the slab view is
// only stable under the shard lock) and located by off/blen in the
// key's state.
//
//prefetch:hotpath
func (e *Engine) gatherMulti(ids []ID, now float64, sc *multiScratch, bsink *[]byte) int {
	states := sc.states[:0]
	for _, id := range ids {
		states = append(states, multiKey{sh: e.shardFor(id)})
	}
	sc.states = states
	merge := e.mergers != nil
	for i := range states {
		if states[i].kind != mkPending {
			continue
		}
		sh := states[i].sh
		sh.mu.Lock()
		for j := i; j < len(states); j++ {
			if states[j].kind != mkPending || states[j].sh != sh {
				continue
			}
			id := ids[j]
			if bsink != nil {
				if e.classifyBytesLocked(sh, id, &states[j], bsink) {
					continue
				}
			} else if v, ok := sh.cache.Get(id); ok {
				states[j].kind = mkHit
				states[j].item = Item{ID: id, Size: sh.residentSize(id), Data: v}
				states[j].used = sh.consumeUnusedLocked(id)
				continue
			}
			f, owner := sh.joinOrRegister(e, id)
			k := mkJoin
			if owner {
				k = mkOwner
				if merge {
					// The merge window hands the fetch to whichever
					// session leads the window, so this session awaits
					// its own key like a joiner: it takes a joiner
					// reference alongside the owner reference it just
					// registered. (A duplicate id later in the session
					// joins this same flight — intra-session dedup
					// falls out of the single-flight table.)
					f.waiters++
					f.refs.Add(1)
					k = mkMerged
				}
			}
			states[j].kind, states[j].f = k, f
		}
		sh.mu.Unlock()
	}
	misses := 0
	for i := range states {
		st := &states[i]
		sh := st.sh
		switch st.kind {
		case mkHit:
			sh.requests.Add(1)
			sh.hits.Add(1)
			if st.used {
				sh.prefetchUsed.Add(1)
			}
			e.ctrl.Estimator().OnHit(cache.ID(ids[i]))
			e.ctrl.RecordRequest(now, st.item.Size)
			e.emit(Event{Type: EventHit, ID: ids[i]})
			st.kind = mkDone
		case mkJoin:
			sh.requests.Add(1)
			sh.misses.Add(1)
			sh.joins.Add(1)
			e.ctrl.RecordRequest(now, 0)
			misses++
		default: // mkOwner, mkMerged
			sh.requests.Add(1)
			sh.misses.Add(1)
			e.ctrl.RecordRequest(now, 0)
			misses++
		}
	}
	return misses
}

// fetchMultiMisses serves the keys the gather could not: owned misses
// travel to their routed backends as coalesced demand batches (through
// the merge window when one is configured), then every joined and
// merged key awaits the flight it attached to.
//
//prefetch:hotpath
func (e *Engine) fetchMultiMisses(ctx context.Context, ids []ID, sc *multiScratch) {
	states := sc.states
	nb := e.fabric.NumBackends()
	if nb > 1 {
		for i := range states {
			if k := states[i].kind; k == mkOwner || k == mkMerged {
				states[i].backend = e.fabric.Route(ids[i])
			}
		}
	}
	for b := 0; b < nb; b++ {
		e.dispatchMultiBackend(ctx, b, ids, sc)
	}
	for i := range states {
		st := &states[i]
		if st.kind == mkJoin || st.kind == mkMerged {
			st.item, st.err = e.awaitJoined(ctx, ids[i], st.f, st.kind == mkJoin)
			st.kind = mkDone
		}
	}
}

// dispatchMultiBackend collects one backend's share of the session's
// owned misses and either executes it as a demand batch or contributes
// it to the backend's merge window.
//
//prefetch:hotpath
func (e *Engine) dispatchMultiBackend(ctx context.Context, b int, ids []ID, sc *multiScratch) {
	states := sc.states
	gids := sc.gids[:0]
	gidx := sc.gidx[:0]
	merged := false
	for i := range states {
		k := states[i].kind
		if (k != mkOwner && k != mkMerged) || states[i].backend != b {
			continue
		}
		merged = k == mkMerged
		gids = append(gids, ids[i])
		gidx = append(gidx, i)
	}
	sc.gids, sc.gidx = gids, gidx
	if len(gids) == 0 {
		return
	}
	if merged {
		e.contributeMerge(ctx, b, gids, sc)
		return
	}
	e.runDemandBatch(ctx, b, gids, gidx, sc)
}

// runDemandBatch executes one backend's share of the session's misses
// as a single coalesced demand batch and lands each key exactly as a
// singleton demand fetch would (completeDemand: cache fill, size and
// estimator folds, flight resolution, per-key error).
//
//prefetch:hotpath
func (e *Engine) runDemandBatch(ctx context.Context, b int, gids []ID, gidx []int, sc *multiScratch) {
	out, errs := e.fetchDemandKeys(ctx, b, gids, sc)
	states := sc.states
	for i, id := range gids {
		st := &states[gidx[i]]
		st.item, st.err = e.completeDemand(st.sh, id, st.f, out[i], errs[i])
		st.kind = mkDone
	}
}

// fetchDemandKeys fetches one backend's share of a session's misses as a
// single demand batch into the session's pooled out/errs staging
// (len(gids), index-aligned). FetchDemandBatch owns the reply checks
// and the per-key fallback — a batch error, a short reply or a
// misordered reply degrades to per-key fetches, so one bad reply never
// fails the session.
//
//prefetch:hotpath
func (e *Engine) fetchDemandKeys(ctx context.Context, b int, gids []ID, sc *multiScratch) ([]Item, []error) {
	out := sc.bout[:0]
	errs := sc.berrs[:0]
	for range gids {
		out = append(out, Item{})
		errs = append(errs, nil)
	}
	sc.bout, sc.berrs = out, errs
	if len(gids) > 1 && e.fabric.BatchCapable(b) {
		e.batchedKeys.Add(int64(len(gids)))
	}
	e.fabric.FetchDemandBatch(ctx, b, gids, out, errs)
	return out, errs
}

// awaitJoined waits out one session key that attached to an in-flight
// fetch (another request's flight, or this session's own merged
// flight), retrying exactly like the singleton join loop: when the
// joined flight fails, the key re-checks the cache under the lock and
// — if no other flight appeared — fetches individually under the
// session's context.
func (e *Engine) awaitJoined(ctx context.Context, id ID, f *flight, emitJoin bool) (Item, error) {
	sh := e.shardFor(id)
	for {
		if emitJoin {
			e.emit(Event{Type: EventJoin, ID: id})
		}
		item, err, resolved := e.awaitFlight(ctx, f)
		if resolved {
			if err != nil {
				return Item{}, err
			}
			return e.finishJoinedMulti(sh, id, item), nil
		}
		sh.mu.Lock()
		if e.closed.Load() {
			sh.mu.Unlock()
			return Item{}, ErrClosed
		}
		if v, ok := sh.cache.Get(id); ok {
			size := sh.residentSize(id)
			used := sh.consumeUnusedLocked(id)
			sh.mu.Unlock()
			if used {
				sh.prefetchUsed.Add(1)
			}
			e.ctrl.Estimator().OnHit(cache.ID(id))
			e.ctrl.RecordSize(size)
			return Item{ID: id, Size: size, Data: v}, nil
		}
		var owner bool
		f, owner = sh.joinOrRegister(e, id)
		sh.mu.Unlock()
		if owner {
			item, ferr := e.fabric.Fetch(ctx, id)
			return e.completeDemand(sh, id, f, item, ferr)
		}
		// From here on the key is a plain join, whatever it started as.
		emitJoin = true
	}
}

// finishJoinedMulti lands a session key served by the flight it
// joined: the same folds as the singleton finishJoined, minus the
// speculative planning — the session plans once, from its last id.
func (e *Engine) finishJoinedMulti(sh *shard, id ID, item Item) Item {
	sh.mu.Lock()
	used := sh.consumeUnusedLocked(id)
	sh.mu.Unlock()
	if used {
		sh.prefetchUsed.Add(1)
	}
	e.ctrl.Estimator().OnHit(cache.ID(id))
	e.ctrl.RecordSize(item.Size)
	return Item{ID: id, Size: item.Size, Data: item.Data}
}

// demandMerger is one backend's demand-dedup merge window
// (WithDemandCoalescing): sessions contribute their misses under mu
// and the first contributor leads the open window on its own goroutine
// — there is no background merger goroutine, so there is nothing to
// leak at Close. mu is a leaf in the engine's lock order: nothing
// acquires any other lock while holding it, and it is never taken
// under a shard mutex.
type demandMerger struct {
	mu      sync.Mutex
	ids     []ID
	fs      []*flight // index-aligned with ids
	leading bool
	// full wakes the leader early when the accumulated batch reaches
	// maxBatch (buffered: contributors never block on it). A stale
	// token — a follower signalling just as the window expires — can
	// cut the next window short by one signal; that is harmless, the
	// leader just dispatches what has accumulated so far.
	full chan struct{}
}

// contributeMerge adds one backend's share of the session's misses to
// that backend's merge window. The first contributor becomes the
// leader: it waits out the window (cut short by the maxBatch
// high-water mark, engine close, or its own context), then drains
// everything accumulated and executes it as coalesced demand batches,
// completing every flight — its own keys included, which the caller
// then awaits through fetchMultiMisses exactly like a follower's.
// Every entry is drained by whichever session led when it was added,
// so no flight is ever orphaned in the window.
//
//prefetch:hotpath
func (e *Engine) contributeMerge(ctx context.Context, b int, gids []ID, sc *multiScratch) {
	m := e.mergers[b]
	m.mu.Lock()
	m.ids = append(m.ids, gids...)
	for _, i := range sc.gidx {
		m.fs = append(m.fs, sc.states[i].f)
	}
	lead := !m.leading
	if lead {
		m.leading = true
	}
	n := len(m.ids)
	m.mu.Unlock()
	if !lead {
		e.mergedSessions.Add(1)
		if n >= e.mergeMax {
			select {
			case m.full <- struct{}{}:
			default:
			}
		}
		return
	}
	if n < e.mergeMax {
		timer := time.NewTimer(e.mergeWindow)
		select {
		case <-timer.C:
		case <-m.full:
			timer.Stop()
		case <-e.baseCtx.Done():
			timer.Stop()
		case <-ctx.Done():
			timer.Stop()
		}
	}
	m.mu.Lock()
	mids := append(sc.mids[:0], m.ids...)
	mfs := append(sc.mfs[:0], m.fs...)
	sc.mids, sc.mfs = mids, mfs
	m.ids = m.ids[:0]
	clear(m.fs) // drop the flight references before pooling-style reuse
	m.fs = m.fs[:0]
	m.leading = false
	select {
	case <-m.full: // absorb a high-water signal for entries just taken
	default:
	}
	m.mu.Unlock()
	e.executeMergedBatch(ctx, b, mids, mfs, sc)
}

// executeMergedBatch completes every flight of a drained merge window
// in demand batches of at most mergeMax keys. Per-key failures (the
// leader's context dying included) fail only the affected flights;
// their sessions retry those keys individually under their own
// contexts via the awaitJoined loop.
//
//prefetch:hotpath
func (e *Engine) executeMergedBatch(ctx context.Context, b int, mids []ID, mfs []*flight, sc *multiScratch) {
	for start := 0; start < len(mids); start += e.mergeMax {
		end := start + e.mergeMax
		if end > len(mids) {
			end = len(mids)
		}
		chunk := mids[start:end]
		out, errs := e.fetchDemandKeys(ctx, b, chunk, sc)
		for i, id := range chunk {
			f := mfs[start+i]
			_, _ = e.completeDemand(e.shardFor(id), id, f, out[i], errs[i])
		}
	}
}
