// Package bytestore provides the slab-backed prefetcher.Cache: payload
// bytes live in internal/slab's pointer-free segment arena, and the
// arena's flat index is the store's one table — it says where a value
// is, whether it is resident at all, and, through the recency links it
// carries, which resident goes next (least recently used first). The
// garbage collector scans neither a pointer per cached value nor a node
// per cached key. A Store implements prefetcher.ByteCache, which is what
// lets Engine.GetBytes/GetMultiBytes serve hits by copying straight
// from the arena into a caller-owned buffer: no interface boxing, no
// per-hit allocation.
//
// There is one eviction stream: the slab reports every entry it
// displaces — the write cursor rotating the oldest segment when
// compaction cannot reclaim it (the byte bound), a Put past MaxEntries
// evicting from the tail of the recency list (the entry bound, after
// any rotation the same Put caused), the overflow budget loop below —
// through one callback, which drops the
// victim's boxed value if it had one and forwards the id to the OnEvict
// callback the engine installs. Recency is touched by Get, GetBytes and
// BytesLen on a hit and by every Put; Contains peeks.
//
// Values that cannot live in the arena — payloads larger than a
// segment, or non-[]byte Data — are boxed in an overflow map so
// Cache.Put never silently drops (the engine's resident accounting
// assumes an admitted entry is resident). A boxed value still holds its
// place in the arena, as an empty 12-byte record, so the slab stays the
// only authority on residency and recency: rotation or the entry bound
// can evict a boxed value like any other. Boxed values miss
// GetBytes/BytesLen and are served through the compatibility Get path
// instead — the engine's byte paths fall back to it under the same
// shard lock, so an oversized []byte is still a byte hit. Overflow
// []byte usage is charged against CapacityBytes (see Config).
//
// A Store is not goroutine-safe; the engine gives each shard its own
// instance (use Factory with prefetcher.WithCacheFactory) and
// serialises calls under the shard lock.
package bytestore

import (
	"bytes"
	"errors"

	"repro/internal/slab"
	"repro/prefetcher"
)

// Config sizes one Store (per shard — Factory splits a global budget).
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

// Store is the slab-backed cache. Construct with New or Factory.
type Store struct {
	slab          *slab.Store
	overflow      map[prefetcher.ID]boxed
	overflowBytes int
	capacityBytes int
	onEvict       func(prefetcher.ID)
}

// boxed is one overflow entry: the value plus the byte size it charges
// against CapacityBytes (0 for non-[]byte values, whose footprint the
// store cannot measure).
type boxed struct {
	val  any
	size int
}

var (
	_ prefetcher.Cache       = (*Store)(nil)
	_ prefetcher.ByteCache   = (*Store)(nil)
	_ prefetcher.BytesPutter = (*Store)(nil)
)

// New builds one Store from cfg.
func New(cfg Config) (*Store, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, errors.New("bytestore: CapacityBytes must be > 0")
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = max(cfg.CapacityBytes/64, 16)
	}
	s := &Store{
		slab:          slab.New(cfg.CapacityBytes, cfg.SegmentBytes),
		overflow:      make(map[prefetcher.ID]boxed),
		capacityBytes: cfg.CapacityBytes,
	}
	s.slab.SetMaxEntries(maxEntries)
	// The one eviction stream: rotation, the entry bound and the overflow
	// budget loop all report here, from inside Put.
	s.slab.OnEvict(func(id int64) {
		s.dropOverflow(prefetcher.ID(id))
		if s.onEvict != nil {
			s.onEvict(prefetcher.ID(id))
		}
	})
	return s, nil
}

// Factory validates cfg once and returns a prefetcher.WithCacheFactory
// function producing one Store per shard, with the byte and entry
// budgets ceil-split across the shard count.
func Factory(cfg Config) (func(shard, shards int) prefetcher.Cache, error) {
	if _, err := New(cfg); err != nil { // an empty Store costs its 64-slot index
		return nil, err
	}
	return func(_, shards int) prefetcher.Cache {
		per := cfg
		per.CapacityBytes = ceilDiv(cfg.CapacityBytes, shards)
		if cfg.MaxEntries > 0 {
			per.MaxEntries = ceilDiv(cfg.MaxEntries, shards)
		}
		s, err := New(per)
		if err != nil {
			// Unreachable: the per-shard split only shrinks positive
			// budgets, and never to zero.
			panic(err)
		}
		return s
	}, nil
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// Get implements prefetcher.Cache. For slab-resident values it copies
// the payload into a fresh slice — the boxing compatibility path, which
// allocates per hit; byte-path callers (the engine's GetBytes and
// GetMultiBytes) use GetBytes instead.
func (s *Store) Get(id prefetcher.ID) (any, bool) {
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
func (s *Store) isBoxed(id prefetcher.ID) bool {
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
func (s *Store) GetBytes(id prefetcher.ID, dst []byte) ([]byte, bool) {
	if s.isBoxed(id) {
		return dst, false
	}
	return s.slab.Get(int64(id), dst)
}

// BytesLen implements prefetcher.ByteCache.
//
//prefetch:hotpath
func (s *Store) BytesLen(id prefetcher.ID) (int, bool) {
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
func (s *Store) Put(id prefetcher.ID, value any) {
	b, isBytes := value.([]byte)
	if isBytes && s.slab.Fits(len(b)) {
		s.PutBytes(id, b)
		return
	}
	// Clear id's previous incarnation before making room (Delete reports
	// nothing — an overwrite is not an eviction), so the budget loop can
	// never choose the entry being inserted as its victim and Put never
	// silently drops.
	s.slab.Delete(int64(id))
	s.dropOverflow(id)
	for s.overflowBytes+len(b) > s.capacityBytes && s.slab.Len() > 0 {
		s.slab.EvictOldest()
	}
	s.overflow[id] = boxed{val: value, size: len(b)}
	s.overflowBytes += len(b)
	s.slab.Put(int64(id), nil)
}

// PutBytes implements prefetcher.BytesPutter: Put for a payload the
// caller only borrowed. The arena copies what fits a segment, as it
// does for Put; an oversized payload, which Put would keep by
// reference in the overflow map, is cloned first.
//
//prefetch:hotpath
func (s *Store) PutBytes(id prefetcher.ID, b []byte) {
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
func (s *Store) dropOverflow(id prefetcher.ID) {
	if e, ok := s.overflow[id]; ok {
		s.overflowBytes -= e.size
		delete(s.overflow, id)
	}
}

// Contains implements prefetcher.Cache (a peek: no recency refresh).
func (s *Store) Contains(id prefetcher.ID) bool { return s.slab.Has(int64(id)) }

// Len implements prefetcher.Cache.
func (s *Store) Len() int { return s.slab.Len() }

// OnEvict implements prefetcher.Cache. The callback receives every
// victim, whichever bound displaced it.
func (s *Store) OnEvict(fn func(prefetcher.ID)) { s.onEvict = fn }

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
