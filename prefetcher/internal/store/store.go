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
	// that would push overflow bytes past CapacityBytes first evicts the
	// least recently used residents. Worst case the store holds
	// CapacityBytes of arena plus CapacityBytes of overflow, plus one
	// payload beyond that when a single value exceeds the whole budget
	// (Put never drops the entry being inserted). Non-[]byte overflow
	// values have no measurable size and are bounded only by MaxEntries.
	CapacityBytes int
	// MaxEntries bounds the resident count; past it the least recently
	// used resident goes. Defaults to CapacityBytes/64, at least 16, and
	// is clamped to 2²⁸ (see slab.Store.SetMaxEntries).
	MaxEntries int
	// SegmentBytes is the arena segment size; 0 means the slab default
	// (1 MiB).
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

// New builds one Store from cfg: LRU, bounded by bytes and entries.
func New(cfg Config) (*Store, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, errors.New("bytestore: CapacityBytes must be > 0")
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = max(cfg.CapacityBytes/64, 16)
	}
	return newStore(cfg.CapacityBytes, cfg.SegmentBytes, maxEntries), nil
}

// NewLRU returns a Store holding at most n entries, least recently used
// out first, with no byte bound. It panics if n < 1.
func NewLRU(n int) *Store {
	if n < 1 {
		panic(fmt.Sprintf("store: capacity %d must be >= 1", n))
	}
	return newStore(math.MaxInt, entrySegmentBytes, n)
}

// NewSLRU returns a Store holding at most n entries in segmented-LRU
// order, at most p of them protected (see slab.Store.SetProtected), with
// no byte bound. It panics if n < 1 or p < 1.
func NewSLRU(n, p int) *Store {
	if p < 1 {
		panic(fmt.Sprintf("store: SLRU protected capacity %d must be >= 1", p))
	}
	s := NewLRU(n)
	s.slab.SetProtected(p)
	return s
}

func newStore(capacityBytes, segmentBytes, maxEntries int) *Store {
	s := &Store{
		slab:          slab.New(capacityBytes, segmentBytes),
		overflow:      make(map[fetch.ID]boxed),
		capacityBytes: capacityBytes,
	}
	s.slab.SetMaxEntries(maxEntries)
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

// Get implements prefetcher.Cache. For slab-resident values it copies
// the payload into a fresh slice — the boxing compatibility path, which
// allocates per hit; byte-path callers (the engine's GetBytes and
// GetMultiBytes) use GetBytes instead.
func (s *Store) Get(id fetch.ID) (any, bool) {
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
//
//prefetch:hotpath
func (s *Store) isBoxed(id fetch.ID) bool {
	if len(s.overflow) == 0 {
		return false
	}
	_, ok := s.overflow[id]
	return ok
}

// GetBytes implements prefetcher.ByteCache: a slab hit is appended to
// dst with no boxing and no allocation beyond dst's own growth.
//
//prefetch:hotpath
func (s *Store) GetBytes(id fetch.ID, dst []byte) ([]byte, bool) {
	if s.isBoxed(id) {
		return dst, false
	}
	return s.slab.Get(int64(id), dst)
}

// BytesLen implements prefetcher.ByteCache.
//
//prefetch:hotpath
func (s *Store) BytesLen(id fetch.ID) (int, bool) {
	if s.isBoxed(id) {
		return 0, false
	}
	return s.slab.BytesLen(int64(id))
}

// Put implements prefetcher.Cache. []byte payloads that fit a segment
// go to the arena; everything else goes to the boxed overflow map with
// an empty arena record in its place, so an admitted entry is always
// resident whatever its payload shape. Overflow bytes bypass the arena's
// budget, so they are charged against CapacityBytes here: the least
// recently used residents are evicted until the incoming payload fits
// (see Config.CapacityBytes for the worst-case bound).
func (s *Store) Put(id fetch.ID, value any) {
	b, isBytes := value.([]byte)
	if isBytes && s.slab.Fits(len(b)) {
		s.PutBytes(id, b)
		return
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
	s.slab.Put(int64(id), nil)
	if resident {
		s.slab.BytesLen(int64(id)) // an overwrite is a use, as slab.Put makes it
	}
}

// PutBytes implements prefetcher.BytesPutter: Put for a payload the
// caller only borrowed. The arena copies what fits a segment, as it
// does for Put; an oversized payload, which Put would keep by
// reference in the overflow map, is cloned first.
//
//prefetch:hotpath
func (s *Store) PutBytes(id fetch.ID, b []byte) {
	if !s.slab.Fits(len(b)) {
		//lint:allow hotpathalloc a payload larger than a segment lives boxed in the overflow map, which must not alias the lender's buffer
		s.Put(id, bytes.Clone(b))
		return
	}
	s.dropOverflow(id) // shape change: previous value may be boxed
	s.slab.Put(int64(id), b)
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

// SlabStats exposes the arena's occupancy/churn counters.
func (s *Store) SlabStats() slab.Stats { return s.slab.Stats() }
