package prefetcher

import (
	"context"
	"errors"
)

// This file is the byte payload views of the read core (multi.go):
// GetBytes, GetBytesLen and GetMultiBytes serve []byte payloads by
// appending into caller-owned buffers instead of boxing them through
// Item.Data — the same read as Get/GetMulti landed in a byte sink. A hit
// goes through the cache's byte view, which the built-in store serves by
// copying straight from its pointer-free arena under the shard lock: no
// boxing, no per-hit allocation once the buffer has grown to working
// size (gated by TestGetBytesAllocFree/TestGetMultiBytesAllocFree). A
// cache that answers false there is read boxed, and a resident []byte is
// appended once the read lands.
//
// Ownership contract: the engine never retains the caller's buffer,
// and the caller gets back an extension of exactly the buffer it
// passed — pooling it is safe. The payload is always a copy; no result
// aliases cache or slab memory.
//
// A miss borrows that buffer when it can. If every shard's cache has
// the landing bit (LandBytes stores by copy) and the fabric lends
// (fetch.Fabric.Lends: every backend an IntoFetcher, no hedged race),
// the fetch a GetBytes or GetMultiBytes owns reads the origin's bytes
// straight in behind what the buffer already holds — no payload slice,
// no box — and land copies them once into the cache before the call
// returns; joiners of that flight get a clone of their own. After the
// call nothing in the engine points into the buffer. A fetch that fails
// after writing into it leaves its length alone: on error dst comes
// back unchanged, and what lies past len is never sent. Otherwise — and
// for Get, GetMulti and GetBytesLen, which have no buffer to lend — the
// payload arrives owned in Item.Data and is appended once the read
// lands.

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
func (e *Engine) GetBytes(ctx context.Context, id ID, dst []byte) ([]byte, error) {
	ids := [1]ID{id}
	var one [1]ByteRange
	_, buf, err := e.read(ctx, ids[:], sink{mode: sinkBytes, ranges: one[:0]}, dst)
	if err != nil {
		return dst, soleKeyError(err)
	}
	return buf, nil
}

// GetBytesLen reports id's payload length without copying the payload
// — the Content-Length probe behind HEAD handlers. Residency, recency,
// accounting and speculative planning behave exactly as a Get hit; a
// miss demand-fetches (the payload has to exist to have a length) and
// reports the fetched length.
func (e *Engine) GetBytesLen(ctx context.Context, id ID) (int, error) {
	ids := [1]ID{id}
	var one [1]ByteRange
	out, _, err := e.read(ctx, ids[:], sink{mode: sinkLen, ranges: one[:0]}, nil)
	if err != nil {
		return 0, soleKeyError(err)
	}
	return out.ranges[0].Len, nil
}

// GetMultiBytes is GetMulti for byte payloads: the whole session's
// payloads are packed back to back into buf (truncated, appended,
// returned extended — same contract as GetBytes' dst) and located by
// one ByteRange per id, index-aligned and appended to ranges. Failures
// are per key: a failed id gets ByteRange{-1, -1} and a KeyError
// (ErrNotBytes for non-[]byte payloads) in the returned *MultiError,
// while the rest of the session is served — exactly GetMulti's
// semantics. Steady-state callers reusing buf and ranges keep the
// all-hit session allocation-free.
func (e *Engine) GetMultiBytes(ctx context.Context, ids []ID, buf []byte, ranges []ByteRange) ([]byte, []ByteRange, error) {
	out, buf, err := e.read(ctx, ids, sink{mode: sinkBytes, session: true, ranges: ranges[:0]}, buf[:0])
	return buf, out.ranges, err
}
