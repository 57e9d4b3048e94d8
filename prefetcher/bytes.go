package prefetcher

import (
	"context"
	"errors"

	"repro/internal/cache"
	"repro/internal/predict"
)

// This file is the zero-copy byte payload path: GetBytes, GetBytesLen
// and GetMultiBytes serve []byte payloads by appending into
// caller-owned buffers instead of boxing them through Item.Data. On a
// cache backed by a ByteCache (prefetcher/bytestore's slab store) a
// hit copies straight from the pointer-free arena into the caller's
// buffer while the shard lock protects the slab view — no interface
// boxing, no per-hit allocation once the buffer has grown to working
// size (gated by TestGetBytesAllocFree/TestGetMultiBytesAllocFree).
// Boxed caches work too: a resident []byte is appended under the same
// lock, so benchmarks compare boxed vs slab storage on one API.
//
// Ownership contract: the engine never retains the caller's buffer,
// and the caller gets back an extension of exactly the buffer it
// passed — pooling it is safe. The payload is always a copy; no result
// aliases cache or slab memory.

// ErrNotBytes reports that a requested item is (or was fetched as) a
// non-[]byte payload, which the byte path cannot serve. The item
// itself is cached normally — Get/GetMulti will serve it.
var ErrNotBytes = errors.New("prefetcher: payload is not []byte")

// ByteRange locates one session key's payload inside the buffer
// GetMultiBytes returns: buf[Off : Off+Len]. A failed key carries
// {-1, -1} and its error in the session's *MultiError.
type ByteRange struct {
	Off, Len int
}

// GetBytes is Get for byte payloads: it serves id by appending the
// payload to dst and returning the extended slice. The demand-path
// semantics are exactly Get's — same predictor observation, estimator
// folds, hit/miss/join accounting and speculative planning; misses go
// through the same dedup'd fetch machinery. On error (including
// ErrNotBytes for a non-[]byte payload, which stays cached and
// Get-servable) dst is returned unchanged.
//
//prefetch:hotpath
func (e *Engine) GetBytes(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if e.closed.Load() {
		return dst, ErrClosed
	}
	now := e.now()
	bufs := e.getBufs()
	cands := e.observeAndPredict(id, bufs)
	out, served := e.serveBytesFast(id, now, cands, dst)
	if served {
		e.putBufs(bufs)
		return out, nil
	}
	// Miss (or a payload the fast path cannot serve as bytes): the
	// singleton demand path owns join/fetch/accounting; its Item is
	// unboxed once at the end.
	item, err := e.get(ctx, id, now, cands)
	e.putBufs(bufs)
	if err != nil {
		return dst, err
	}
	return appendItemBytes(dst, item)
}

// GetBytesLen reports id's payload length without copying the payload
// — the Content-Length probe behind HEAD handlers. Residency, recency,
// accounting and speculative planning behave exactly as a Get hit; a
// miss demand-fetches (the payload has to exist to have a length) and
// reports the fetched length.
func (e *Engine) GetBytesLen(ctx context.Context, id ID) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if e.closed.Load() {
		return 0, ErrClosed
	}
	now := e.now()
	bufs := e.getBufs()
	cands := e.observeAndPredict(id, bufs)
	n, served := e.serveBytesLenFast(id, now, cands)
	if served {
		e.putBufs(bufs)
		return n, nil
	}
	item, err := e.get(ctx, id, now, cands)
	e.putBufs(bufs)
	if err != nil {
		return 0, err
	}
	b, ok := item.Data.([]byte)
	if !ok {
		return 0, ErrNotBytes
	}
	return len(b), nil
}

// serveBytesFast is the byte path's hit fast path: one critical
// section covering the payload copy out of the cache (the slab view is
// only stable under the shard lock) and the size/unused map touches,
// then the exact counter/estimator sequence of serveResident. Returns
// served=false — with dst untouched — when id is not resident as
// bytes: a miss, or a boxed non-[]byte payload, both of which the
// caller routes through the ordinary demand path.
//
//prefetch:hotpath
func (e *Engine) serveBytesFast(id ID, now float64, cands []predict.Prediction, dst []byte) ([]byte, bool) {
	sh := e.shardFor(id)
	sh.mu.Lock()
	if e.closed.Load() {
		sh.mu.Unlock()
		return dst, false
	}
	var out []byte
	served := false
	if sh.bcache != nil {
		if o, ok := sh.bcache.GetBytes(id, dst); ok {
			out, served = o, true
		}
		// A slab miss is not a cache miss: the entry may be resident in
		// the store's boxed overflow (an oversized []byte, or a
		// non-[]byte payload) — the boxed lookup below decides.
	}
	if !served {
		v, ok := sh.cache.Get(id)
		if !ok {
			sh.mu.Unlock()
			return dst, false
		}
		b, ok := v.([]byte)
		if !ok {
			// Resident, but not as bytes: decline without accounting —
			// e.get re-serves it as the one counted hit and GetBytes
			// reports ErrNotBytes.
			sh.mu.Unlock()
			return dst, false
		}
		out = append(dst, b...)
	}
	size := sh.residentSize(id)
	used := sh.consumeUnusedLocked(id)
	sh.mu.Unlock()
	sh.requests.Add(1)
	sh.hits.Add(1)
	if used {
		sh.prefetchUsed.Add(1)
	}
	e.ctrl.Estimator().OnHit(cache.ID(id))
	e.ctrl.RecordRequest(now, size)
	e.emit(Event{Type: EventHit, ID: id})
	e.schedule(cands, now)
	return out, true
}

// serveBytesLenFast is serveBytesFast without the copy: BytesLen on a
// ByteCache, len() on a boxed resident []byte.
//
//prefetch:hotpath
func (e *Engine) serveBytesLenFast(id ID, now float64, cands []predict.Prediction) (int, bool) {
	sh := e.shardFor(id)
	sh.mu.Lock()
	if e.closed.Load() {
		sh.mu.Unlock()
		return 0, false
	}
	var n int
	probed := false
	if sh.bcache != nil {
		if m, ok := sh.bcache.BytesLen(id); ok {
			n, probed = m, true
		}
		// Slab miss ≠ cache miss: fall through to the boxed lookup for
		// overflow-resident payloads, as in serveBytesFast.
	}
	if !probed {
		v, ok := sh.cache.Get(id)
		if !ok {
			sh.mu.Unlock()
			return 0, false
		}
		b, ok := v.([]byte)
		if !ok {
			sh.mu.Unlock()
			return 0, false
		}
		n = len(b)
	}
	size := sh.residentSize(id)
	used := sh.consumeUnusedLocked(id)
	sh.mu.Unlock()
	sh.requests.Add(1)
	sh.hits.Add(1)
	if used {
		sh.prefetchUsed.Add(1)
	}
	e.ctrl.Estimator().OnHit(cache.ID(id))
	e.ctrl.RecordRequest(now, size)
	e.emit(Event{Type: EventHit, ID: id})
	e.schedule(cands, now)
	return n, true
}

// appendItemBytes unboxes a demand-served Item's payload onto dst.
//
//prefetch:hotpath
func appendItemBytes(dst []byte, item Item) ([]byte, error) {
	b, ok := item.Data.([]byte)
	if !ok {
		return dst, ErrNotBytes
	}
	return append(dst, b...), nil
}

// GetMultiBytes is GetMulti for byte payloads: the whole session's
// payloads are packed back to back into buf (truncated, appended,
// returned extended — same contract as GetBytes' dst) and located by
// one ByteRange per id, index-aligned and appended to ranges. Hits are
// copied into buf inside the gather's per-shard critical sections;
// misses run the ordinary coalesced batch path and their items are
// unboxed into buf afterwards. Failures are per key: a failed id gets
// ByteRange{-1, -1} and a KeyError (ErrNotBytes for non-[]byte
// payloads) in the returned *MultiError, while the rest of the session
// is served — exactly GetMulti's semantics. Steady-state callers
// reusing buf and ranges keep the all-hit session allocation-free.
//
//prefetch:hotpath
func (e *Engine) GetMultiBytes(ctx context.Context, ids []ID, buf []byte, ranges []ByteRange) ([]byte, []ByteRange, error) {
	buf, ranges = buf[:0], ranges[:0]
	if err := ctx.Err(); err != nil {
		return buf, ranges, err
	}
	if e.closed.Load() {
		return buf, ranges, ErrClosed
	}
	if len(ids) == 0 {
		return buf, ranges, nil
	}
	e.multiGets.Add(1)
	now := e.now()
	bufs := e.getBufs()
	cands := e.observeMulti(ids, bufs)
	sc := e.getMulti()
	misses := e.gatherMulti(ids, now, sc, &buf)
	if misses > 0 {
		e.fetchMultiMisses(ctx, ids, sc)
		now = e.now() // the session waited on fetches
	}
	nerr := 0
	states := sc.states
	for i := range ids {
		st := &states[i]
		if st.err == nil && !st.inBuf {
			// Served by the miss path as an Item: unbox into the buffer.
			if b, ok := st.item.Data.([]byte); ok {
				st.off, st.blen = len(buf), len(b)
				buf = append(buf, b...)
				st.inBuf = true
			} else {
				st.err = ErrNotBytes
			}
		}
		if st.err != nil {
			ranges = append(ranges, ByteRange{Off: -1, Len: -1})
			nerr++
			continue
		}
		ranges = append(ranges, ByteRange{Off: st.off, Len: st.blen})
	}
	var err error
	if nerr > 0 {
		err = buildMultiError(ids, states, nerr)
	}
	e.schedule(cands, now)
	e.putMulti(sc)
	e.putBufs(bufs)
	return buf, ranges, err
}

// classifyBytesLocked is gatherMulti's hit classification in byte mode:
// a byte-servable resident is copied onto *bsink inside the shard's
// critical section and located by off/blen; a resident that cannot be
// served as bytes is still a hit, carrying ErrNotBytes to the
// assembly. Returns false when id is not resident — the caller falls
// through to the join/own miss machinery. Called with sh.mu held.
//
//prefetch:hotpath
func (e *Engine) classifyBytesLocked(sh *shard, id ID, st *multiKey, bsink *[]byte) bool {
	if sh.bcache != nil {
		base := len(*bsink)
		if out, ok := sh.bcache.GetBytes(id, *bsink); ok {
			*bsink = out
			st.kind = mkHit
			st.item = Item{ID: id, Size: sh.residentSize(id)}
			st.used = sh.consumeUnusedLocked(id)
			st.off, st.blen = base, len(out)-base
			st.inBuf = true
			return true
		}
		// A slab miss is not a cache miss: the entry may be resident in
		// the store's boxed overflow — an oversized []byte, which the
		// boxed lookup below serves as a normal byte hit, or a genuinely
		// non-[]byte payload, which earns ErrNotBytes.
	}
	v, ok := sh.cache.Get(id)
	if !ok {
		return false
	}
	st.kind = mkHit
	st.item = Item{ID: id, Size: sh.residentSize(id)}
	st.used = sh.consumeUnusedLocked(id)
	if b, bok := v.([]byte); bok {
		st.off, st.blen = len(*bsink), len(b)
		*bsink = append(*bsink, b...)
		st.inBuf = true
	} else {
		st.err = ErrNotBytes
	}
	return true
}
