package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Estimator implements the paper's Section-4 online estimator of h′ —
// the cache hit ratio that would be observed if prefetching were *not*
// running — while prefetching actually is running. The idea: entries
// that entered the cache through prefetching are "untagged" until a user
// request touches them. Hits on tagged entries are hits a no-prefetch
// cache would also have produced; the first hit on an untagged entry
// would have been a miss without prefetching (it counts toward naccess
// but not nhit) and promotes the entry to tagged, because from then on
// even a no-prefetch cache would have held it (it would have been
// demand-fetched and admitted).
//
// The algorithm transcribed from the paper:
//
//	When an item is prefetched:       insert as untagged.
//	When a tagged entry is accessed:  naccess++, nhit++.
//	When an untagged entry is hit:    naccess++; promote to tagged.
//	When a remote item is accessed:   naccess++; if admitted, tag it.
//
// Estimate (model A):  ĥ′ = nhit/naccess.
// Estimate (model B):  ĥ′ = nhit/naccess × n̄(C)/(n̄(C)−n̄(F)),
// compensating for the tagged occupants model B assumes were displaced
// by prefetched items.
//
// Counting rule: naccess counts each user request that reached an
// outcome exactly once — a hit, a miss, or a wait on an in-flight fetch
// — and nhit counts the hits that were not the first use of a
// prefetched entry. A request that claims a prefetch still in flight is
// a miss: it is counted when it arrives, and the landing it waited for
// counts nothing. With prefetching off every entry is tagged, so ĥ′
// equals the plain hit ratio.
//
// The tag lives in exactly one place per cache. The live engine keeps
// it as each entry's unused bit in its own shards, and the simulator
// keeps it beside each client's entries; both report through
// CountAccess alone. The
// id-keyed methods keep the tags here instead, in one map under one
// mutex, for callers that have no cache of their own to keep them in.
// The counters are atomics, so CountAccess never takes the lock, and
// they are only ever read as a ratio.
type Estimator struct {
	mu      sync.Mutex
	tagged  map[ID]bool // resident → tagged?
	naccess atomic.Int64
	nhit    atomic.Int64
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{tagged: make(map[ID]bool)}
}

// OnPrefetch records that id entered the cache via prefetch (untagged).
func (e *Estimator) OnPrefetch(id ID) {
	e.mu.Lock()
	e.tagged[id] = false
	e.mu.Unlock()
}

// OnHit records a user request that hit the cache. It updates the
// counters per the paper's algorithm and reports whether the entry was
// tagged at the time of access.
func (e *Estimator) OnHit(id ID) (wasTagged bool) {
	e.mu.Lock()
	t, known := e.tagged[id]
	if !known || !t {
		e.tagged[id] = true // promote untagged → tagged (or adopt unknown)
	}
	e.mu.Unlock()

	// An entry that predates the estimator (e.g. warm-up admission
	// before estimation started) counts as tagged: a no-prefetch cache
	// would hold it too.
	wasTagged = t || !known
	e.CountAccess(wasTagged)
	return wasTagged
}

// CountAccess is the estimator's counters alone, for a caller that keeps
// the tag bit itself (the engine's shards and the simulator's clients
// do): one user request, serviced by a tagged entry or not — a miss and
// a prefetch's first use, a hit on it or a wait on it in flight, pass
// false. naccess is bumped before nhit, which is what EstimateA's load
// order relies on.
func (e *Estimator) CountAccess(taggedHit bool) {
	e.naccess.Add(1)
	if taggedHit {
		e.nhit.Add(1)
	}
}

// OnRemoteAccess records a user request that missed the cache and was
// fetched remotely; admitted says whether the item was then admitted to
// the cache (tagged if so).
func (e *Estimator) OnRemoteAccess(id ID, admitted bool) {
	if admitted {
		e.mu.Lock()
		e.tagged[id] = true
		e.mu.Unlock()
	}
	e.CountAccess(false)
}

// OnEvict forgets the tag state of an evicted entry.
func (e *Estimator) OnEvict(id ID) {
	e.mu.Lock()
	delete(e.tagged, id)
	e.mu.Unlock()
}

// Accesses returns naccess, the total number of user requests observed.
func (e *Estimator) Accesses() int64 { return e.naccess.Load() }

// TaggedHits returns nhit, the number of requests serviced by tagged
// entries.
func (e *Estimator) TaggedHits() int64 { return e.nhit.Load() }

// Tagged reports whether id is currently resident-and-tagged.
func (e *Estimator) Tagged(id ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tagged[id]
}

// Resident returns the number of entries the estimator is tracking.
func (e *Estimator) Resident() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.tagged)
}

// EstimateA returns the model-A estimate ĥ′ = nhit/naccess
// (0 before any access). nhit is loaded before naccess: CountAccess
// increments naccess first, so nhit ≤ naccess at every instant and
// this load order keeps the concurrent snapshot's ratio within [0, 1].
func (e *Estimator) EstimateA() float64 {
	nh := e.nhit.Load()
	na := e.naccess.Load()
	if na == 0 {
		return 0
	}
	return float64(nh) / float64(na)
}

// EstimateB returns the model-B estimate
// ĥ′ = nhit/naccess × n̄(C)/(n̄(C)−n̄(F)), where nC is the average cache
// occupancy and nF the average number of prefetched items per request.
// It returns an error when nC−nF <= 0, where the correction is
// undefined (the cache would consist entirely of prefetched items).
func (e *Estimator) EstimateB(nC, nF float64) (float64, error) {
	if nC <= nF {
		return 0, fmt.Errorf("cache: model-B correction undefined for n̄(C)=%v <= n̄(F)=%v", nC, nF)
	}
	return e.EstimateA() * nC / (nC - nF), nil
}

// Reset zeroes the counters but keeps tag state, so estimation can be
// restarted after simulation warm-up without forgetting residency.
func (e *Estimator) Reset() {
	e.naccess.Store(0)
	e.nhit.Store(0)
}
