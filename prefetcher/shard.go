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
//
//prefetch:cacheline
type counter struct {
	atomic.Int64
	_ [56]byte // 64-byte line minus the 8-byte count
}

// shard is one partition of the engine's keyed hot-path state. Every ID
// maps to exactly one shard (shardFor), and everything guarded by mu —
// the cache, the in-flight table, the size and unused-prefetch maps —
// is only ever touched while holding that shard's mutex, so requests
// for keys in different shards never contend. The counters are padded
// atomics bumped outside the mutex: a Get's critical section is just
// the cache/in-flight/size-map touches. The estimates that must stay
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
	bcache   ByteCache
	inflight map[ID]*flight
	// sizes remembers the last fetched size of each resident item so
	// hits can report it without refetching.
	sizes map[ID]float64
	// unused marks resident prefetched items not yet consumed by a
	// demand request — the basis of the used/wasted accounting, and the
	// paper's Section-4 tag, inverted: a resident id is tagged iff it is
	// not in unused. Set when a prefetch lands, cleared by the first
	// demand hit and by eviction, exactly the tag's transitions, so a hit
	// feeds ĥ′ from the bit it read here under mu (CountAccess(!used))
	// and the engine keeps no second copy in the estimator.
	unused map[ID]struct{}

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

// shardMapHint pre-sizes the per-shard maps so the first requests do
// not pay incremental map growth: the in-flight table stays small (it
// is bounded by concurrent fetches per shard), while sizes/unused grow
// toward the shard's cache capacity and reach steady state quickly.
const shardMapHint = 64

func newShard(c Cache) *shard {
	bc, _ := c.(ByteCache)
	return &shard{
		cache:    c,
		bcache:   bc,
		inflight: make(map[ID]*flight, shardMapHint),
		sizes:    make(map[ID]float64, shardMapHint),
		unused:   make(map[ID]struct{}, shardMapHint),
	}
}

// consumeUnusedLocked clears id's prefetched-but-unused marker,
// reporting whether it was set — the caller charges prefetchUsed after
// releasing the lock. Called with sh.mu held.
//
//prefetch:hotpath
func (sh *shard) consumeUnusedLocked(id ID) bool {
	if _, ok := sh.unused[id]; ok {
		delete(sh.unused, id)
		return true
	}
	return false
}

// shardFor routes an id to its owning shard. The multiplicative hash
// (Fibonacci hashing) spreads the dense sequential ids that interned key
// spaces produce; taking the top bits keeps the map uniform for any
// power-of-two shard count. With one shard the shift is 64 and the index
// is always 0.
//
//prefetch:hotpath
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

// putCache inserts data under id in the shard's cache and keeps the
// engine's live resident count in step: +1 when the id is newly
// admitted, and every eviction — whether triggered by this Put or by
// any other cache call — is debited by the shard's eviction callback
// (onEvict), so the counter stays correct for any Cache that reports
// its evictions. Called with sh.mu held.
//
//prefetch:hotpath
func (e *Engine) putCache(sh *shard, id ID, data any) {
	fresh := !sh.cache.Contains(id)
	sh.cache.Put(id, data)
	if fresh {
		e.residents.Add(1)
	}
}

// residentSize returns the recorded size of a resident item, defaulting
// to 1 — the same default the fetch paths apply — for entries the engine
// never fetched itself, e.g. items already present in a user-supplied
// prewarmed cache. The fallback is memoised so ŝ̄ and repeated hits see
// a consistent value. Called with sh.mu held.
//
//prefetch:hotpath
func (sh *shard) residentSize(id ID) float64 {
	size, ok := sh.sizes[id]
	if !ok {
		size = 1
		sh.sizes[id] = size
	}
	return size
}

// onEvict wires one shard's cache eviction stream into the engine: the
// live resident count is debited, the size memo is dropped, and a
// prefetched-but-never-used entry is charged as wasted (which also
// forgets its Section-4 tag: the unused marker is the tag). The
// callback runs synchronously from whichever cache call evicts — always
// under this shard's mutex, since every cache call happens there.
func (e *Engine) onEvict(sh *shard) func(ID) {
	return func(id ID) {
		e.residents.Add(-1)
		delete(sh.sizes, id)
		if _, ok := sh.unused[id]; ok {
			delete(sh.unused, id)
			sh.prefetchWasted.Add(1)
		}
	}
}
