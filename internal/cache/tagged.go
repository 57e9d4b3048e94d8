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
// Estimator is safe for concurrent use: callers report demand hits,
// remote fetches, prefetch completions and evictions from different
// goroutines. The tag state is striped across several
// independently-locked maps keyed by id, and the counters are atomics,
// so concurrent callers do not serialise on one estimator lock. Each
// id's tag transitions stay ordered (one stripe owns each id); the
// aggregate counters are only ever read as a ratio, for which atomic
// adds suffice. The live engine keeps each entry's tag bit in its own
// shards and reports through CountAccess alone; the simulator uses the
// id-keyed methods.
type Estimator struct {
	stripes [estimatorStripes]estimatorStripe
	naccess atomic.Int64
	nhit    atomic.Int64
}

// estimatorStripeBits sets the number of independently-locked tag maps
// (2^bits). 16 stripes is plenty to keep engine shards from colliding
// without bloating the zero-traffic footprint.
const (
	estimatorStripeBits = 4
	estimatorStripes    = 1 << estimatorStripeBits
)

type estimatorStripe struct {
	mu     sync.Mutex
	tagged map[ID]bool // resident → tagged?
}

// NewEstimator returns an empty estimator. It must observe every cache
// event; the simulator wires it to the client's cache.
func NewEstimator() *Estimator {
	e := &Estimator{}
	for i := range e.stripes {
		e.stripes[i].tagged = make(map[ID]bool)
	}
	return e
}

// stripe returns the stripe owning id. The multiplicative hash spreads
// sequential ids (the common dense-interned case) across stripes even
// when the caller's own sharding already used the low bits.
func (e *Estimator) stripe(id ID) *estimatorStripe {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &e.stripes[h>>(64-estimatorStripeBits)]
}

// OnPrefetch records that id entered the cache via prefetch (untagged).
func (e *Estimator) OnPrefetch(id ID) {
	s := e.stripe(id)
	s.mu.Lock()
	s.tagged[id] = false
	s.mu.Unlock()
}

// OnHit records a user request that hit the cache. It updates the
// counters per the paper's algorithm and reports whether the entry was
// tagged at the time of access.
func (e *Estimator) OnHit(id ID) (wasTagged bool) {
	s := e.stripe(id)
	s.mu.Lock()
	t, known := s.tagged[id]
	if !known || !t {
		s.tagged[id] = true // promote untagged → tagged (or adopt unknown)
	}
	s.mu.Unlock()

	// An entry that predates the estimator (e.g. warm-up admission
	// before estimation started) counts as tagged: a no-prefetch cache
	// would hold it too.
	wasTagged = t || !known
	e.CountAccess(wasTagged)
	return wasTagged
}

// CountAccess is the estimator's counters alone, for a caller that keeps
// the tag bit itself (the engine's shards do, under their own locks):
// one user request, serviced by a tagged entry or not — a first hit on
// an untagged entry and a remote access both pass false. naccess is
// bumped before nhit, which is what EstimateA's load order relies on.
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
		s := e.stripe(id)
		s.mu.Lock()
		s.tagged[id] = true
		s.mu.Unlock()
	}
	e.CountAccess(false)
}

// OnEvict forgets the tag state of an evicted entry.
func (e *Estimator) OnEvict(id ID) {
	s := e.stripe(id)
	s.mu.Lock()
	delete(s.tagged, id)
	s.mu.Unlock()
}

// Accesses returns naccess, the total number of user requests observed.
func (e *Estimator) Accesses() int64 { return e.naccess.Load() }

// TaggedHits returns nhit, the number of requests serviced by tagged
// entries.
func (e *Estimator) TaggedHits() int64 { return e.nhit.Load() }

// Tagged reports whether id is currently resident-and-tagged.
func (e *Estimator) Tagged(id ID) bool {
	s := e.stripe(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tagged[id]
}

// Resident returns the number of entries the estimator is tracking.
func (e *Estimator) Resident() int {
	n := 0
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.Lock()
		n += len(s.tagged)
		s.mu.Unlock()
	}
	return n
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
