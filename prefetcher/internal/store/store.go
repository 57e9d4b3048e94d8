// Package store is the one Cache the prefetcher library builds:
// NewLRUCache, NewSLRUCache and New's default cache bound it by entries,
// prefetcher/bytestore (what prefetchd mounts) by bytes as well. Payload
// bytes live in internal/slab's segment arena, off the Go heap, and the
// arena's flat index is the store's one table: where a value is, whether
// it is resident, and — through the recency links it carries, LRU or
// segmented LRU (slab.Store.SetProtected) — which resident goes next.
// The collector scans neither a pointer per value nor a node per key,
// and GetBytes (prefetcher.ByteCache) copies a hit straight from the
// arena into the caller's buffer, allocating nothing.
//
// There is one eviction stream: every entry the slab displaces — by
// rotating its oldest segment (the byte bound), from the tail of the
// recency order (the entry bound, after any rotation the same Put
// caused) or for the overflow budget below — reaches one callback, which
// drops the victim's boxed value and forwards the id to the engine's
// OnEvict. Get, GetBytes, BytesLen and every Put touch; Contains peeks.
//
// New's and NewFiltered's stores filter admission (TinyLFU's rule,
// slab.Store.FilterAdmission): Get, GetBytes and BytesLen each count a
// demand access, and a demand landing of a new id that would displace a
// resident is stored only if its key is counted more often than the
// resident that would go first. A speculative landing (Land, LandBytes)
// bypasses the filter: the threshold rule already judged it worth its
// bytes. NewLRU and NewSLRU keep the pure order their names promise.
//
// A []byte that fits a segment is copied in, so Get hands back an equal
// copy. Any other value — a larger []byte, non-[]byte Data — is boxed in
// an overflow map, held by reference, and keeps its place in the arena
// as an empty 12-byte record, so the slab stays the only authority on
// residency and recency. Boxed values miss GetBytes/BytesLen; the
// engine's byte paths fall back to Get under the same shard lock.
// Overflow []byte usage is charged against CapacityBytes (see Config).
//
// A Store is not goroutine-safe; the engine gives each shard its own
// and serialises calls under the shard lock.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/slab"
	"repro/prefetcher/fetch"
)

// entrySegmentBytes is the arena segment of NewLRU's and NewSLRU's
// stores: a []byte up to 64 KiB, less its 12-byte header, is copied in.
const entrySegmentBytes = 64 << 10

// Config sizes one byte-bounded Store (per shard — bytestore.Factory
// splits a global budget).
type Config struct {
	// CapacityBytes bounds the arena's memory. Required. Oversized
	// []byte payloads (larger than a segment) bypass the arena into the
	// boxed overflow map but are charged against the same budget: a Put
	// that would push overflow bytes past CapacityBytes first evicts
	// residents, probation's tail first. Worst case the store holds
	// CapacityBytes of arena plus CapacityBytes of overflow, plus one
	// payload beyond that when a single value exceeds the whole budget
	// (Put never drops the entry being inserted). Non-[]byte overflow
	// values have no measurable size and are bounded only by MaxEntries.
	CapacityBytes int
	// MaxEntries bounds the resident count, half of it protected; past
	// it a resident goes, probation's tail first. Defaults to
	// CapacityBytes/64, at least 16, clamped to 2²⁸ (slab.Store.SetMaxEntries).
	MaxEntries int
	// SegmentBytes is the arena segment size; 0 means the slab's 1 MiB.
	SegmentBytes int
}

// Store is the slab-backed cache. Construct with New, NewLRU or NewSLRU.
type Store struct {
	slab          *slab.Store
	overflow      map[fetch.ID]boxed
	overflowBytes int
	capacityBytes int
	onEvict       func(fetch.ID)
}

// boxed is one overflow entry: the value plus the byte size it charges
// against CapacityBytes (0 for non-[]byte values, whose footprint the
// store cannot measure).
type boxed struct {
	val  any
	size int
}

// New builds one Store from cfg, bounded by bytes and entries, in
// segmented-LRU order with MaxEntries/2 protected (1 entry: plain LRU)
// behind the admission filter: one-shot keys and unused prefetches go
// before a key read twice, and a demand miss displaces a resident only
// if its key is seen more often.
func New(cfg Config) (*Store, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, errors.New("bytestore: CapacityBytes must be > 0")
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = max(cfg.CapacityBytes/64, 16)
	}
	return newStore(cfg.CapacityBytes, cfg.SegmentBytes, maxEntries, maxEntries/2, true), nil
}

// NewFiltered returns New's order — n entries, n/2 of them protected,
// behind the admission filter — with NewLRU's entry-only bound: the
// engine's default cache. It panics if n < 1.
func NewFiltered(n int) *Store {
	if n < 1 {
		panic(fmt.Sprintf("store: capacity %d must be >= 1", n))
	}
	return newStore(math.MaxInt, entrySegmentBytes, n, n/2, true)
}

// NewLRU returns a Store holding at most n entries, least recently used
// out first, with no byte bound. It panics if n < 1.
func NewLRU(n int) *Store {
	if n < 1 {
		panic(fmt.Sprintf("store: capacity %d must be >= 1", n))
	}
	return newStore(math.MaxInt, entrySegmentBytes, n, 0, false)
}

// NewSLRU returns a Store holding at most n entries in segmented-LRU
// order, at most p of them protected (see slab.Store.SetProtected), with
// no byte bound. It panics if n < 1 or p < 1.
func NewSLRU(n, p int) *Store {
	if n < 1 || p < 1 {
		panic(fmt.Sprintf("store: capacity %d and SLRU protected capacity %d must be >= 1", n, p))
	}
	return newStore(math.MaxInt, entrySegmentBytes, n, p, false)
}

// newStore is every constructor's: protected 0 is plain LRU.
func newStore(capacityBytes, segmentBytes, maxEntries, protected int, filtered bool) *Store {
	s := &Store{
		slab:          slab.New(capacityBytes, segmentBytes),
		overflow:      make(map[fetch.ID]boxed),
		capacityBytes: capacityBytes,
	}
	s.slab.SetMaxEntries(maxEntries)
	s.slab.SetProtected(protected)
	if filtered {
		s.slab.FilterAdmission()
	}
	// The one eviction stream: rotation, the entry bound and the overflow
	// budget loop all report here, from inside Put.
	s.slab.OnEvict(func(id int64) {
		s.dropOverflow(fetch.ID(id))
		if s.onEvict != nil {
			s.onEvict(fetch.ID(id))
		}
	})
	return s
}

// Get implements prefetcher.Cache. A slab-resident value is copied into
// a fresh slice — the boxing path, an allocation per hit; the engine's
// GetBytes and GetMultiBytes call GetBytes instead.
func (s *Store) Get(id fetch.ID) (any, bool) {
	s.slab.Count(int64(id))
	if e, ok := s.overflow[id]; ok {
		s.slab.BytesLen(int64(id)) // a hit: refresh the placeholder's recency
		return e.val, true
	}
	b, ok := s.slab.Get(int64(id), nil)
	if !ok {
		return nil, false
	}
	return b, true
}

// isBoxed reports whether id's arena record is only the placeholder of
// a boxed value. The length guard keeps the byte path off the map while
// nothing is boxed — the usual case.
func (s *Store) isBoxed(id fetch.ID) bool {
	if len(s.overflow) == 0 {
		return false
	}
	_, ok := s.overflow[id]
	return ok
}

// GetBytes implements prefetcher.ByteCache: a slab hit is appended to
// dst with no boxing and no allocation beyond dst's own growth.
func (s *Store) GetBytes(id fetch.ID, dst []byte) ([]byte, bool) {
	if s.isBoxed(id) {
		return dst, false // the Get the engine falls back to counts the access
	}
	s.slab.Count(int64(id))
	return s.slab.Get(int64(id), dst)
}

// BytesLen implements prefetcher.ByteCache.
func (s *Store) BytesLen(id fetch.ID) (int, bool) {
	if s.isBoxed(id) {
		return 0, false
	}
	s.slab.Count(int64(id))
	return s.slab.BytesLen(int64(id))
}

// Put implements prefetcher.Cache: a demand landing of value (Land).
func (s *Store) Put(id fetch.ID, value any) { s.Land(id, value, false) }

// PutBytes implements prefetcher.BytesPutter: Put for a payload the
// caller only borrowed (LandBytes).
func (s *Store) PutBytes(id fetch.ID, b []byte) { s.LandBytes(id, b, false) }

// Land stores a fetched value under id, told whether the landing is
// speculative, and reports whether it was stored. A []byte that fits a
// segment is copied into the arena (LandBytes). Everything else goes,
// unfiltered, to the boxed overflow map, with an empty arena record in
// its place, so an admitted entry is always resident whatever its
// payload shape. Overflow bytes bypass the arena's budget, so they are
// charged against CapacityBytes here: residents are evicted,
// probation's tail first, until the incoming payload fits (see
// Config.CapacityBytes for the worst-case bound).
func (s *Store) Land(id fetch.ID, value any, speculative bool) bool {
	b, isBytes := value.([]byte)
	if isBytes && s.slab.Fits(len(b)) {
		return s.LandBytes(id, b, speculative)
	}
	// Clear id's previous incarnation before making room (Delete reports
	// nothing — an overwrite is not an eviction), so the budget loop can
	// never choose the entry being inserted as its victim and Put never
	// silently drops.
	resident := s.slab.Delete(int64(id))
	s.dropOverflow(id)
	for s.overflowBytes+len(b) > s.capacityBytes && s.slab.Len() > 0 {
		s.slab.EvictOldest()
	}
	s.overflow[id] = boxed{val: value, size: len(b)}
	s.overflowBytes += len(b)
	s.slab.PutAdmitted(int64(id), nil)
	if resident {
		s.slab.BytesLen(int64(id)) // an overwrite is a use, as slab.Put makes it
	}
	return true
}

// LandBytes is Land for a payload the caller only borrowed: nothing the
// store keeps aliases b once it returns. The arena copies what fits a
// segment — a new id there passes the admission filter first, unless
// the landing is speculative; an oversized payload, which Land would
// keep by reference in the overflow map, is cloned first.
func (s *Store) LandBytes(id fetch.ID, b []byte, speculative bool) bool {
	if !s.slab.Fits(len(b)) {
		return s.Land(id, bytes.Clone(b), speculative)
	}
	s.dropOverflow(id) // shape change: previous value may be boxed
	if speculative {
		return s.slab.PutAdmitted(int64(id), b)
	}
	return s.slab.Put(int64(id), b)
}

// dropOverflow removes id's boxed entry, if any, debiting its charge
// against the overflow byte budget.
func (s *Store) dropOverflow(id fetch.ID) {
	if e, ok := s.overflow[id]; ok {
		s.overflowBytes -= e.size
		delete(s.overflow, id)
	}
}

// Contains implements prefetcher.Cache (a peek: no recency refresh).
func (s *Store) Contains(id fetch.ID) bool { return s.slab.Has(int64(id)) }

// Len implements prefetcher.Cache.
func (s *Store) Len() int { return s.slab.Len() }

// OnEvict implements prefetcher.Cache. The callback receives every
// victim, whichever bound displaced it.
func (s *Store) OnEvict(fn func(fetch.ID)) { s.onEvict = fn }

// Footprint reports the payload bytes the store holds and the ceiling
// it holds each kind to (see Config.CapacityBytes): the arena's live
// bytes, record headers (a boxed value's placeholder is one) included,
// against arenaMax, the segments the arena may grow to — a ceiling, not
// the expected size, since the slab compacts before it grows and grows
// only while every segment is more than half live; the overflow map's
// []byte payloads against CapacityBytes, or against the one payload Put
// lets exceed it alone.
func (s *Store) Footprint() (arena, arenaMax, overflow, overflowMax int64) {
	st := s.slab.Stats()
	overflowMax = int64(s.capacityBytes)
	if len(s.overflow) == 1 {
		overflowMax = max(overflowMax, int64(s.overflowBytes))
	}
	return st.LiveBytes, int64(st.SegmentBytes) * int64(s.slab.MaxSegments()), int64(s.overflowBytes), overflowMax
}

// Admission reports the admission filter's books, and unlike the rest
// of the Store may be read from any goroutine: the demand landings it
// declined and its sketch's size (0 and 0 for NewLRU and NewSLRU).
func (s *Store) Admission() (declined int64, sketchBytes int) {
	return s.slab.Declined(), s.slab.SketchBytes()
}

// SlabStats exposes the arena's occupancy/churn counters.
func (s *Store) SlabStats() slab.Stats { return s.slab.Stats() }
