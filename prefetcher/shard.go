package prefetcher

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// counter is an atomic counter padded out to its own cache line, so
// adjacent counters bumped from different goroutines never false-share.
// The per-shard counters below are counter values: a bump is one atomic
// add that needs no shard mutex, which keeps accounting off the shard's
// critical sections entirely and makes Stats a wait-free snapshot.
// TestCounterFillsCacheLine holds the padding to whole lines.
type counter struct {
	atomic.Int64
	_ [56]byte // 64-byte line minus the 8-byte count
}

// shard is one partition of the engine's keyed hot-path state. Every ID
// maps to exactly one shard (shardFor), and everything guarded by mu —
// the cache, the in-flight table, the resident records — is only ever
// touched while holding that shard's mutex, so requests for keys in
// different shards never contend. The counters are padded atomics
// bumped outside the mutex: a Get's critical section is just the
// cache/in-flight/record touches. The estimates that must stay
// globally consistent (λ̂, ŝ̄, ĥ′, n̄(F) and hence the threshold) live
// outside the shards, in the engine's shared prefetch.Controller, whose
// counters are contention-safe atomics.
//
// Lock ordering: a goroutine holds at most one shard mutex at a time.
// While holding it, it may take the engine's quiesce lock (shard →
// qmu); nothing ever takes a shard mutex while holding that, so the
// order is acyclic. The shard's cache eviction callback runs
// synchronously from Put — i.e. under this shard's mutex — and only
// touches this shard's state, which is what makes per-shard caches
// (rather than one shared instance) load-bearing for deadlock freedom.
type shard struct {
	mu sync.Mutex

	cache Cache
	// bcache is cache when it additionally implements ByteCache (the
	// slab-backed byte store does), nil otherwise; the GetBytes fast
	// path type-asserts once at construction instead of per request.
	bcache ByteCache
	// pcache is cache when it can store a borrowed payload by copy
	// (BytesPutter), nil otherwise; probed once, like bcache.
	pcache BytesPutter
	// lcache is cache when it takes the landing bit (lander: the
	// built-in store does), nil otherwise; probed once, like bcache.
	lcache lander
	// inflight holds pointers and is bounded by concurrent fetches; it
	// stays its own map so that records, which grows with the cache, is
	// one the collector never scans.
	inflight map[ID]*flight
	// records holds one record per resident the engine landed (a
	// prewarmed cache's entries have none): written by land, read —
	// and its unused mark consumed — by a hit, deleted by eviction.
	records map[ID]resident

	// Hot-path counters: cache-line-padded atomics, bumped without the
	// shard mutex and summed wait-free by Stats. Each request bumps
	// requests before its outcome counter (hits or misses), and Stats
	// reads the outcome counters before requests, so the aggregate
	// invariants (Hits+Misses ≤ Requests, ratios ≤ 1) hold in every
	// mid-flight snapshot; quiesced snapshots are exact.
	requests, hits, misses, joins                                                 counter
	prefetchIssued, prefetchUsed, prefetchWasted, prefetchDropped, prefetchErrors counter
	// inflightN mirrors len(inflight) (updated under mu alongside the
	// map) so Stats can report in-flight fetches without the lock.
	inflightN counter
}

// resident is what the engine remembers about one cached item. size is
// its last fetched size, so hits can report it without refetching.
// unused marks a prefetched item no demand request has consumed yet —
// the basis of the used/wasted accounting, and the paper's Section-4
// tag, inverted: a resident is tagged iff it is not unused. Set when a
// prefetch lands, cleared by the first demand hit, gone with the record
// at eviction — exactly the tag's transitions — so a hit feeds ĥ′ from
// the bit it read under mu (CountAccess(!used)) and the engine keeps no
// second copy in the estimator. Pointer-free by design.
type resident struct {
	size   float64
	unused bool
}

// shardMapHint pre-sizes the per-shard maps so the first requests do
// not pay incremental map growth: the in-flight table stays small (it
// is bounded by concurrent fetches per shard), while records grows
// toward the shard's cache capacity and reaches steady state quickly.
const shardMapHint = 64

func newShard(c Cache) *shard {
	bc, _ := c.(ByteCache)
	pc, _ := c.(BytesPutter)
	lc, _ := c.(lander)
	return &shard{
		cache:    c,
		bcache:   bc,
		pcache:   pc,
		lcache:   lc,
		inflight: make(map[ID]*flight, shardMapHint),
		records:  make(map[ID]resident, shardMapHint),
	}
}

// useLocked reads id's record for a demand request about to be served:
// its size — defaulting to 1, the same default land applies, for a
// resident the engine never fetched itself, e.g. one already present in
// a user-supplied prewarmed cache — and whether the request is the
// first to use a prefetched item, in which case the mark is consumed
// and the caller charges prefetchUsed after releasing the lock. It
// never creates a record: a joiner served by its flight's own item may
// arrive after eviction dropped the record, and nothing would ever
// remove one planted then. Called with sh.mu held.
func (sh *shard) useLocked(id ID) (size float64, used bool) {
	r, ok := sh.records[id]
	if !ok {
		return 1, false
	}
	if r.unused {
		sh.records[id] = resident{size: r.size}
	}
	return r.size, r.unused
}

// resolveLocked deregisters f as id's in-flight fetch and publishes its
// outcome — the item a landing stored in it, or err: joiners, if any
// are waiting, are woken by closing done. No new joiner can appear once
// the flight is off the table, so waiters is final. Called with sh.mu
// held; the caller drops its own reference after the unlock.
func (sh *shard) resolveLocked(id ID, f *flight, err error) {
	if sh.inflight[id] == f {
		delete(sh.inflight, id)
		sh.inflightN.Add(-1)
	}
	f.err = err
	if f.waiters > 0 {
		f.closed = true
		close(f.done)
	}
}

// shardFor routes an id to its owning shard. The multiplicative hash
// (Fibonacci hashing) spreads the dense sequential ids that interned key
// spaces produce; taking the top bits keeps the map uniform for any
// power-of-two shard count. With one shard the shift is 64 and the index
// is always 0.
func (e *Engine) shardFor(id ID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return e.shards[h>>e.shardShift]
}

// nextPow2 rounds n up to the next power of two (n >= 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// defaultShards derives the default shard count from GOMAXPROCS: the
// smallest power of two covering the available parallelism, capped so a
// huge machine does not fragment the default cache into slivers.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return nextPow2(n)
}

// lander is the landing bit's way into a cache: Land stores a landing
// as Put would, LandBytes as PutBytes would, each told whether the
// landing is speculative, and each reports whether it stored it. The
// built-in store implements it: its admission filter may turn a demand
// landing away, never a speculative one, which the threshold rule
// already admitted.
type lander interface {
	Land(id ID, value any, speculative bool) bool
	LandBytes(id ID, b []byte, speculative bool) bool
}

// putCache inserts a payload under id in the shard's cache — data, or
// by copy the borrowed bytes lent — and reports whether the cache
// stored it (a cache without the landing bit always does). It keeps the
// engine's live resident count in step: +1 when the id is newly stored,
// and every eviction — whether triggered by this Put or by any other
// cache call — is debited by the shard's eviction callback (onEvict), so
// the counter stays correct for any Cache that reports its evictions.
// Called with sh.mu held.
func (e *Engine) putCache(sh *shard, id ID, data any, lent []byte, borrowed, speculative bool) bool {
	fresh, stored := !sh.cache.Contains(id), true
	switch {
	case sh.lcache != nil && borrowed:
		stored = sh.lcache.LandBytes(id, lent, speculative)
	case sh.lcache != nil:
		stored = sh.lcache.Land(id, data, speculative)
	case borrowed:
		sh.pcache.PutBytes(id, lent)
	default:
		sh.cache.Put(id, data)
	}
	if fresh && stored {
		e.residents.Add(1)
	}
	return stored
}

// onEvict wires one shard's cache eviction stream into the engine: the
// live resident count is debited, the record is dropped, and a
// prefetched-but-never-used entry is charged as wasted (which also
// forgets its Section-4 tag: the unused mark is the tag). The
// callback runs synchronously from whichever cache call evicts — always
// under this shard's mutex, since every cache call happens there.
func (e *Engine) onEvict(sh *shard) func(ID) {
	return func(id ID) {
		e.residents.Add(-1)
		if sh.records[id].unused {
			sh.prefetchWasted.Add(1)
		}
		delete(sh.records, id)
	}
}
