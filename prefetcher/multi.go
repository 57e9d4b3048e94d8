package prefetcher

import (
	"context"
	"fmt"
)

// This file is the engine's one read core. Every public read — Get,
// GetBytes, GetBytesLen, GetMulti/GetMultiInto and GetMultiBytes — is a
// thin view over read, which serves a "session" of one or more keys in
// a single pass: the predictor observes the ids as one linearised
// sequence (the stream N singleton Gets would have produced, so the
// Markov chain sees the same transitions), a shard gather classifies
// every key hit/join/miss taking each shard lock once, the counters and
// estimators are folded on atomics outside the locks, each backend's
// owned misses travel as one demand batch to one backend (a one-key
// batch is the fabric's ordinary hedged Fetch), joined keys wait out
// the flights they attached to, and the outcome is landed in the
// caller's sink. A singleton Get is the fan-out-1 session: the views
// differ only in the sink. All per-request scratch is pooled; the
// all-hit path allocates nothing in steady state (gated by
// TestGetHitAllocFree, TestGetMultiAllocFree and the byte-path gates).

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
// hit/join/owner in the gather, then → mkDone once its item or error is
// final.
const (
	mkPending uint8 = iota
	mkHit           // served from cache inside the gather's critical section
	mkJoin          // attached to a flight another request owns
	mkOwner         // this request owns the flight; fetched on the batch path
	mkDone          // item/err final
)

// multiKey is one session key's classification and outcome.
type multiKey struct {
	sh   *shard
	f    *flight
	item Item
	err  error
	// Byte sinks: inBuf marks a payload already located at [off,
	// off+blen) of the sink buffer — copied there (or, for the length
	// sink, measured) by the cache's byte view under the shard lock, or
	// read there from the origin by a fetch the buffer was lent to. Every
	// other payload arrives boxed in item.Data and is unboxed when the
	// read lands.
	off, blen int
	inBuf     bool
	kind      uint8
	used      bool // served from a prefetched entry no demand request had consumed yet
}

// Sink modes: the closed set of shapes a read's outcome can take.
const (
	sinkItems uint8 = iota // one boxed Item per id (Get, GetMulti)
	sinkBytes              // payloads appended to buf, one ByteRange per id (GetBytes, GetMultiBytes)
	sinkLen                // one ByteRange per id carrying the payload length only (GetBytesLen)
)

// sink is where a read lands: the one parameter the public views differ
// in. read appends one entry per id to items (sinkItems) or ranges
// (byte modes) and hands the sink back; it travels by value, and the
// byte buffer the ranges index travels beside it, not in it, because
// the buffer crosses the Cache interface: a sink reached through a
// pointer, or holding a field that escapes, would drag the singleton
// views' stack-backed items/ranges to the heap with it.
type sink struct {
	mode uint8
	// session marks a GetMulti/GetMultiBytes call, counted in
	// Stats.MultiGets; the singleton views are sessions the counter
	// never sees.
	session bool
	items   []Item
	ranges  []ByteRange
}

// multiScratch is the pooled per-request state: the predictor's
// candidate buffers, the per-key classification table and the staging
// buffers for batch dispatch and speculative planning. Pooling it is
// what keeps the all-hit path allocation-free.
type multiScratch struct {
	candBufs
	states []multiKey
	gids   []ID  // the owned misses, then the admitted candidates
	gidx   []int // indices into states, aligned with the owned misses
	bout   []Item
	berrs  []error
	blens  []int // per staged miss, its payload's length in a lent buffer
	// Inline first backing for gids: see multiPool.New for why a fresh
	// scratch must not cost an allocation for it.
	gids0 [8]ID
}

// maxPooledKeys bounds the session size whose scratch is worth keeping:
// a request is as large as its caller makes it, and one oversized
// session must not pin its scratch in the pool for the life of the
// process. Larger scratch is left to the garbage collector.
const maxPooledKeys = 1024

func (e *Engine) getMulti() *multiScratch { return e.multiPool.Get().(*multiScratch) }

// putMulti zeroes the key states the request used and returns the
// scratch to the pool: pooled scratch must not pin cached data or
// resolved flights, and gatherMulti claims states on the understanding
// that the whole table is zero. (The batch staging is cleared where it
// is used.)
func (e *Engine) putMulti(sc *multiScratch) {
	if cap(sc.states) > maxPooledKeys {
		return
	}
	clear(sc.states)
	e.multiPool.Put(sc)
}

// GetMulti serves one session of correlated demand keys and returns
// one Item per id, index-aligned with ids. Keys resident in cache are
// served under a single pass over the shards; missing keys are
// coalesced into one demand FetchBatch call (joining any
// in-flight fetches, so concurrent sessions and singleton Gets for the
// same key share one origin call). Failures are per key: the returned
// error is nil when every key was served, else a *MultiError listing
// the failed keys — whose Items are zero — while the rest of the
// session is intact. The predictor observes the session's ids as one
// linearised sequence and speculative planning happens once, from the
// session's last id — and only if that id was served.
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
func (e *Engine) GetMultiInto(ctx context.Context, ids []ID, dst []Item) ([]Item, error) {
	out, _, err := e.read(ctx, ids, sink{session: true, items: dst[:0]}, nil)
	return out.items, err
}

// read is the read core behind every public view: it serves ids as one
// session and lands one entry per id in out, appending byte-sink
// payloads to buf (returned extended). The error is nil when every
// key was served, the bare context error or ErrClosed when the request
// was refused whole (nothing counted, nothing landed), else a
// *MultiError with one KeyError per failed key.
//
// The speculative plan is predicted from the session's last id and
// dispatched iff that id was served: a request whose planning key
// failed — or that failed altogether — adds no speculative load to the
// origin that just failed it. A payload the byte sinks refuse
// (ErrNotBytes) was served and cached all the same, so it still plans.
func (e *Engine) read(ctx context.Context, ids []ID, out sink, buf []byte) (sink, []byte, error) {
	if err := ctx.Err(); err != nil {
		return out, buf, err
	}
	if e.closed.Load() {
		return out, buf, ErrClosed
	}
	if len(ids) == 0 {
		return out, buf, nil
	}
	if out.session {
		e.multiGets.Add(1)
	}
	now := e.now()
	sc := e.getMulti()
	cands := e.planner.plan(ids, e.maxPrefetch, &sc.candBufs)
	if e.gatherMulti(ids, now, sc, out.mode, &buf) {
		e.fetchMultiMisses(ctx, ids, sc, out.mode, &buf)
		now = e.now() // the arrival reading predates the wait on fetches
	}
	states := sc.states
	if states[len(ids)-1].err == nil {
		e.schedule(sc, cands, now)
	}
	// Land the outcome in the sink, one entry per id in session order.
	// The byte sinks unbox here every payload the gather did not already
	// copy under a shard lock — a boxed cache's resident, a joined
	// flight's item, a demand fetch's reply: the reference in item.Data
	// keeps the payload alive, so the copy needs no lock — and a payload
	// that is not []byte fails its key with ErrNotBytes; the item stays
	// cached and Get-servable. A failed key lands as the zero Item or
	// ByteRange{-1, -1}.
	nerr := 0
	for i := range states {
		st := &states[i]
		if out.mode == sinkItems {
			out.items = append(out.items, st.item)
		} else {
			if st.err == nil && !st.inBuf {
				if b, ok := st.item.Data.([]byte); !ok {
					st.err = ErrNotBytes
				} else {
					st.off, st.blen = len(buf), len(b)
					if out.mode == sinkBytes {
						buf = append(buf, b...)
					}
				}
			}
			r := ByteRange{Off: st.off, Len: st.blen}
			if st.err != nil {
				r = ByteRange{Off: -1, Len: -1}
			}
			out.ranges = append(out.ranges, r)
		}
		if st.err != nil {
			nerr++
		}
	}
	var err error
	if nerr > 0 {
		err = buildMultiError(ids, states, nerr)
	}
	// Nothing retains cands past dispatch (jobs carry ids, not candidate
	// slices), so the scratch goes straight back.
	e.putMulti(sc)
	return out, buf, err
}

// soleKeyError reduces a fan-out-1 read's error to the plain error the
// singleton views document: the one KeyError's cause. A request refused
// whole already carries the bare error.
func soleKeyError(err error) error {
	if me, ok := err.(*MultiError); ok {
		return me.Errors[0].Err
	}
	return err
}

// buildMultiError assembles the session's per-key error report. Only
// reached when at least one key failed, so its allocations never touch
// the all-hit path.
func buildMultiError(ids []ID, states []multiKey, nerr int) error {
	errs := make([]KeyError, 0, nerr)
	for i := range ids {
		if states[i].err != nil {
			errs = append(errs, KeyError{Index: i, ID: ids[i], Err: states[i].err})
		}
	}
	return &MultiError{Errors: errs}
}

// gatherMulti classifies the request's keys shard by shard: each pass
// takes one shard's lock once and classifies every still-pending key
// living there — hits are served inside that single critical section,
// misses either join the in-flight fetch for their key or register this
// request's own flight, in the same critical section as the lookup, so
// dedup cannot race a completion. (A duplicate id later in the session
// joins the flight the first occurrence registered — intra-session
// dedup falls out of the single-flight table.) Counter bumps and
// estimator folds happen after the locks drop, on atomics, each key
// bumping requests before its outcome counter. Reports whether any key
// still needs the miss path.
func (e *Engine) gatherMulti(ids []ID, now float64, sc *multiScratch, mode uint8, buf *[]byte) bool {
	// The pooled table is zero up to its capacity — putMulti clears what
	// a request used — so a key's state is claimed by naming its shard,
	// and whole elements are only written the first time a request needs
	// more of them than the table has.
	states := sc.states[:cap(sc.states)]
	for len(states) < len(ids) {
		states = append(states, multiKey{})
	}
	states = states[:len(ids)]
	for i, id := range ids {
		states[i].sh = e.shardFor(id)
	}
	sc.states = states
	for i := range states {
		if states[i].kind != mkPending {
			continue
		}
		sh := states[i].sh
		sh.mu.Lock()
		closed := e.closed.Load()
		for j := i; j < len(states); j++ {
			st := &states[j]
			if st.kind != mkPending || st.sh != sh {
				continue
			}
			switch {
			case closed:
				// Close won the race after read's own check: refused under
				// the lock Close's barrier cycles, before anything is
				// counted or registered.
				st.kind, st.err = mkDone, ErrClosed
			case e.classifyResidentLocked(sh, ids[j], st, mode, buf):
				st.kind = mkHit
			default:
				var owner bool
				st.f, owner = sh.joinOrRegister(e, ids[j])
				st.kind = mkJoin
				if owner {
					st.kind = mkOwner
				}
			}
		}
		sh.mu.Unlock()
	}
	pending := false
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
			e.ctrl.Estimator().CountAccess(!st.used)
			e.ctrl.RecordRequest(now, st.item.Size)
			e.emit(Event{Type: EventHit, ID: ids[i]})
			st.kind = mkDone
		case mkJoin, mkOwner:
			// Record the arrival immediately, before any fetch is
			// attempted: a demand fetch that errors (or a joiner whose
			// context expires) is still an arrival, and skipping it would
			// let λ̂ and the controller's request count drift from
			// Stats.Requests under origin failures. The size is unknown
			// here; the fetch paths fold it into ŝ̄ via RecordSize once the
			// origin responds.
			sh.requests.Add(1)
			sh.misses.Add(1)
			if st.kind == mkJoin {
				sh.joins.Add(1) // one count per request, however many flights it retries
			}
			e.ctrl.RecordRequest(now, 0)
			pending = true
		}
	}
	return pending
}

// classifyResidentLocked is the one place a request is served from cache:
// it reports whether id is resident and, if so, records the payload,
// the recorded size and the prefetched-unused consumption in st. The
// byte sinks read the cache through its byte view — the copy (or the
// length probe) happens here because the slab view is only stable under
// the shard lock — and every other payload is handed on boxed. The
// caller owns the accounting: a gather hit and a joined key that finds
// its item cached after a failed wait fold differently. Called with
// sh.mu held.
func (e *Engine) classifyResidentLocked(sh *shard, id ID, st *multiKey, mode uint8, buf *[]byte) bool {
	if mode != sinkItems {
		if mode == sinkLen {
			st.blen, st.inBuf = sh.cache.BytesLen(id)
		} else {
			st.off = len(*buf)
			*buf, st.inBuf = sh.cache.GetBytes(id, *buf)
			st.blen = len(*buf) - st.off
		}
		// A byte-view miss is not a cache miss: the entry may be resident
		// boxed (the store's overflow, or a cache that keeps no bytes) —
		// the boxed lookup below decides. A peek first keeps a plain miss
		// to one read, which the store's admission filter counts as one
		// access.
		if !st.inBuf && !sh.cache.Contains(id) {
			return false
		}
	}
	if !st.inBuf {
		v, ok := sh.cache.Get(id)
		if !ok {
			return false
		}
		st.item.Data = v
	}
	st.item.ID = id
	st.item.Size, st.used = sh.useLocked(id)
	return true
}

// fetchMultiMisses serves the keys the gather could not: the owned
// misses travel together, as one coalesced demand batch to the backend
// of least expected delay (Fabric.Route), then every joined key awaits
// the flight it attached to.
func (e *Engine) fetchMultiMisses(ctx context.Context, ids []ID, sc *multiScratch, mode uint8, buf *[]byte) {
	states := sc.states
	e.runDemandBatch(ctx, e.fabric.Route(), ids, sc, mode, buf)
	for i := range states {
		if states[i].kind == mkJoin {
			e.awaitJoined(ctx, ids[i], &states[i], mode, buf)
			states[i].kind = mkDone
		}
	}
}

// runDemandBatch fetches the request's owned misses from backend b as
// a single demand batch, staged in the pooled scratch, and
// lands each key through land (cache fill, size and estimator folds,
// flight resolution, per-key error). FetchDemandBatch owns the
// reply checks and the per-key fallback — a one-key batch, a batch
// error, a short reply or a misordered reply degrades to the hedged,
// failing-over Fetch per key, so one bad reply never fails the session.
// A byte sink lends the fetch the caller's buffer when the engine lends
// (Engine.lend): payloads read straight into it are in the sink already
// (inBuf) and land borrowed.
func (e *Engine) runDemandBatch(ctx context.Context, b int, ids []ID, sc *multiScratch, mode uint8, buf *[]byte) {
	states := sc.states
	gids, gidx := sc.gids[:0], sc.gidx[:0]
	items, errs := sc.bout[:0], sc.berrs[:0]
	lend, lens := e.lend && mode == sinkBytes, sc.blens[:0]
	for i := range states {
		if states[i].kind == mkOwner {
			gids, gidx = append(gids, ids[i]), append(gidx, i)
			items, errs, lens = append(items, Item{}), append(errs, nil), append(lens, 0)
		}
	}
	sc.gids, sc.gidx, sc.bout, sc.berrs, sc.blens = gids, gidx, items, errs, lens
	if len(gids) == 0 {
		return
	}
	if !lend {
		lens = nil // nothing is lent: each item owns its payload
	}
	if len(gids) > 1 && e.fabric.BatchCapable(b) {
		e.batchedKeys.Add(int64(len(gids)))
	}
	off := len(*buf)
	*buf = e.fabric.FetchDemandBatch(ctx, b, gids, items, errs, *buf, lens)
	for i, id := range gids {
		st := &states[gidx[i]]
		if lend && errs[i] == nil {
			st.off, st.blen, st.inBuf = off, lens[i], true
			off += lens[i]
		}
		st.item, st.err = e.land(st.sh, id, st.f, items[i], (*buf)[st.off:st.off+st.blen], st.inBuf, errs[i], false)
		st.kind = mkDone
	}
	// The replies are landed: the pooled staging must not pin them.
	clear(items)
	clear(errs)
}

// awaitJoined waits out one key that attached to another request's
// in-flight fetch. A flight that resolves serves the key, and ĥ′ counts
// it exactly like a hit on the entry the flight lands: untagged if it
// is the first to use a prefetch, tagged otherwise. Without prefetching
// the owner's demand fetch would have brought the item all the same, so
// the joiner would hit in the load-free cache h′ describes, and it puts
// no traffic on the link; Stats still counts it a miss, as it arrived.
// A failed or dropped flight makes the key re-check the shard under the
// lock: while it waits to re-acquire it, another request may have cached
// the item (serve it; the request stays the miss it was on arrival) or
// registered a fresh flight (join that one — overwriting it would break
// dedup); only when neither happened does the key fetch individually,
// under the caller's context.
func (e *Engine) awaitJoined(ctx context.Context, id ID, st *multiKey, mode uint8, buf *[]byte) {
	sh := st.sh
	for {
		e.emit(Event{Type: EventJoin, ID: id})
		item, err, resolved := e.awaitFlight(ctx, st.f)
		if err != nil {
			st.err = err // the caller's context expired mid-wait
			return
		}
		sh.mu.Lock()
		switch {
		case resolved:
			st.item = Item{ID: id, Size: item.Size, Data: item.Data}
			_, st.used = sh.useLocked(id)
		case e.closed.Load():
			sh.mu.Unlock()
			st.err = ErrClosed
			return
		case e.classifyResidentLocked(sh, id, st, mode, buf):
		default:
			var owner bool
			st.f, owner = sh.joinOrRegister(e, id)
			sh.mu.Unlock()
			if owner {
				var item Item
				var err error
				if st.off = len(*buf); e.lend && mode == sinkBytes {
					item, *buf, err = e.fabric.FetchInto(ctx, id, *buf)
					st.blen, st.inBuf = len(*buf)-st.off, err == nil
				} else {
					item, err = e.fabric.Fetch(ctx, id)
				}
				st.item, st.err = e.land(sh, id, st.f, item, (*buf)[st.off:], st.inBuf, err, false)
				return
			}
			continue
		}
		sh.mu.Unlock()
		if st.used {
			sh.prefetchUsed.Add(1)
		}
		e.ctrl.Estimator().CountAccess(resolved && !st.used)
		e.ctrl.RecordSize(st.item.Size)
		return
	}
}
