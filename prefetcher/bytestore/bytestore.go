// Package bytestore provides the slab-backed prefetcher.Cache: payload
// bytes live in internal/slab's pointer-free segment arena while
// residency, the replacement policy (LRU/SLRU/LFU/FIFO/clock) and hit
// accounting stay in internal/cache.Store — so the engine's estimator
// and policy layers behave exactly as they do over the boxed caches,
// but the garbage collector no longer scans one pointer per cached
// value. A Store implements prefetcher.ByteCache, which is what lets
// Engine.GetBytes/GetMultiBytes serve hits by copying straight from
// the arena into a caller-owned buffer: no interface boxing, no
// per-hit allocation.
//
// Two eviction streams feed the one OnEvict callback the engine
// installs: the policy layer's count-bound victims (an Admit past
// capacity), and the slab's byte-bound rotation victims (the write
// cursor reclaiming the oldest segment). Both remove the entry from
// the other layer before reporting it, so the store's residency,
// payload and the engine's ĥ′/used/wasted accounting never diverge.
//
// Values that cannot live in the arena — payloads larger than a
// segment, or non-[]byte Data — fall back to a boxed overflow map so
// Cache.Put never silently drops (the engine's resident accounting
// assumes an admitted entry is resident). They miss GetBytes/BytesLen
// and are served through the compatibility Get path instead — the
// engine's byte paths fall back to it under the same shard lock, so an
// oversized []byte is still a byte hit. Overflow []byte usage is
// charged against CapacityBytes (see Config).
//
// A Store is not goroutine-safe; the engine gives each shard its own
// instance (use Factory with prefetcher.WithCacheFactory) and
// serialises calls under the shard lock.
package bytestore

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/slab"
	"repro/prefetcher"
)

// Config sizes one Store (per shard — Factory splits a global budget).
type Config struct {
	// CapacityBytes bounds the arena's memory. Required. Oversized
	// []byte payloads (larger than a segment) bypass the arena into the
	// boxed overflow map but are charged against the same budget: a Put
	// that would push overflow bytes past CapacityBytes first evicts
	// policy victims. Worst case the store holds CapacityBytes of arena
	// plus CapacityBytes of overflow, plus one payload beyond that when
	// a single value exceeds the whole budget (Put never drops the
	// entry being inserted). Non-[]byte overflow values have no
	// measurable size and are bounded only by MaxEntries.
	CapacityBytes int
	// MaxEntries bounds the resident count (the policy layer's
	// capacity). Defaults to CapacityBytes/64, at least 16.
	MaxEntries int
	// SegmentBytes is the arena segment size; 0 means the slab default
	// (1 MiB).
	SegmentBytes int
	// Policy selects replacement: "lru" (default), "slru", "lfu",
	// "fifo" or "clock".
	Policy string
}

// Store is the slab-backed cache. Construct with New or Factory.
type Store struct {
	store         *cache.Store
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

// newPolicy resolves a policy name, mapping the empty string to LRU
// and sizing SLRU's protected segment to half the entry budget.
func newPolicy(name string, maxEntries int) (cache.Policy, error) {
	switch name {
	case "", "lru":
		return cache.NewLRU(), nil
	case "slru":
		protected := maxEntries / 2
		if protected < 1 {
			protected = 1
		}
		return cache.NewSLRU(protected), nil
	default:
		return cache.NewPolicy(name)
	}
}

// New builds one Store from cfg.
func New(cfg Config) (*Store, error) {
	if cfg.CapacityBytes <= 0 {
		return nil, errors.New("bytestore: CapacityBytes must be > 0")
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = cfg.CapacityBytes / 64
		if maxEntries < 16 {
			maxEntries = 16
		}
	}
	policy, err := newPolicy(cfg.Policy, maxEntries)
	if err != nil {
		return nil, fmt.Errorf("bytestore: %w", err)
	}
	s := &Store{
		store:         cache.NewStore(maxEntries, policy),
		slab:          slab.New(cfg.CapacityBytes, cfg.SegmentBytes),
		overflow:      make(map[prefetcher.ID]boxed),
		capacityBytes: cfg.CapacityBytes,
	}
	// Count-bound (policy) evictions: drop the payload wherever it
	// lives, then report. Fires from store.Admit and from the overflow
	// byte-budget loop, i.e. from Put.
	s.store.OnEvict(func(id cache.ID) {
		s.slab.Delete(int64(id))
		s.dropOverflow(prefetcher.ID(id))
		if s.onEvict != nil {
			s.onEvict(prefetcher.ID(id))
		}
	})
	// Byte-bound (rotation) evictions: drop residency — Remove is the
	// no-callback form, the report below is the only one — then
	// forward. Fires from slab.Put, i.e. from Put.
	s.slab.OnEvict(func(id int64) {
		s.store.Remove(cache.ID(id))
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
	if _, err := New(probeConfig(cfg)); err != nil {
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
			// Unreachable: the probe validated the config and the
			// per-shard split only shrinks positive budgets.
			panic(err)
		}
		return s
	}, nil
}

// probeConfig is the throwaway validation config: tiny budgets so the
// probe Store costs nothing, same policy so name errors surface.
func probeConfig(cfg Config) Config {
	if cfg.CapacityBytes > 0 {
		cfg.CapacityBytes = 1024
	}
	cfg.MaxEntries = 16
	cfg.SegmentBytes = 1024
	return cfg
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
	if !s.store.Access(cache.ID(id)) {
		return nil, false
	}
	if e, ok := s.overflow[id]; ok {
		return e.val, true
	}
	b, ok := s.slab.Get(int64(id), nil)
	if !ok {
		// Resident per the policy layer but in neither payload store —
		// the sync invariant makes this unreachable.
		return nil, false
	}
	return b, true
}

// GetBytes implements prefetcher.ByteCache: a slab hit is appended to
// dst with no boxing and no allocation beyond dst's own growth.
//
//prefetch:hotpath
func (s *Store) GetBytes(id prefetcher.ID, dst []byte) ([]byte, bool) {
	out, ok := s.slab.Get(int64(id), dst)
	if !ok {
		return dst, false
	}
	s.store.Access(cache.ID(id))
	return out, true
}

// BytesLen implements prefetcher.ByteCache.
//
//prefetch:hotpath
func (s *Store) BytesLen(id prefetcher.ID) (int, bool) {
	n, ok := s.slab.BytesLen(int64(id))
	if !ok {
		return 0, false
	}
	s.store.Access(cache.ID(id))
	return n, true
}

// Put implements prefetcher.Cache. []byte payloads that fit a segment
// go to the arena; everything else goes to the boxed overflow map, so
// an admitted entry is always resident whatever its payload shape.
// Overflow bytes bypass the arena's budget, so they are charged
// against CapacityBytes here: victims are evicted through the policy
// layer until the incoming payload fits (see Config.CapacityBytes for
// the worst-case bound).
func (s *Store) Put(id prefetcher.ID, value any) {
	if b, ok := value.([]byte); ok && s.slab.Fits(len(b)) {
		s.PutBytes(id, b)
		return
	}
	size := 0
	if b, ok := value.([]byte); ok {
		size = len(b)
	}
	// Clear id's previous incarnation before making room (Remove is the
	// no-callback form — an overwrite is not an eviction), so the budget
	// loop can never choose the entry being inserted as its victim and
	// Put never silently drops.
	s.store.Remove(cache.ID(id))
	s.slab.Delete(int64(id))
	s.dropOverflow(id)
	for s.overflowBytes+size > s.capacityBytes && s.store.Len() > 0 {
		s.store.EvictVictim()
	}
	s.overflow[id] = boxed{val: value, size: size}
	s.overflowBytes += size
	s.store.Admit(cache.ID(id))
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
	s.store.Admit(cache.ID(id))
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
func (s *Store) Contains(id prefetcher.ID) bool { return s.store.Contains(cache.ID(id)) }

// Len implements prefetcher.Cache.
func (s *Store) Len() int { return s.store.Len() }

// OnEvict implements prefetcher.Cache. The callback receives victims
// of both eviction streams — policy and segment rotation.
func (s *Store) OnEvict(fn func(prefetcher.ID)) { s.onEvict = fn }

// Footprint reports the payload bytes the store holds and the ceiling
// it holds each kind to (see Config.CapacityBytes): the arena's live
// bytes, record headers included, against the segments rotation may
// fill; the overflow map's []byte payloads against CapacityBytes, or
// against the one payload Put lets exceed it alone.
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
