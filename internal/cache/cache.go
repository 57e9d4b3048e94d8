// Package cache implements the simulator's client-side caching
// substrate: a capacity-bounded store parameterised by replacement
// policy (LRU, LFU, FIFO, Clock, Random), and — central to the
// reproduction — the paper's Section-4 estimator of h′ (the hit ratio
// that *would* be observed without prefetching) while prefetching is
// actually running.
package cache

import (
	"fmt"

	"repro/internal/rng"
)

// ID identifies a cacheable item. The workload package assigns dense
// non-negative IDs, but the cache treats them as opaque.
type ID int64

// Policy chooses eviction victims. Implementations maintain their own
// metadata, driven by the notifications below; they never store the
// resident set themselves (the Store owns it).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Inserted notifies that id has been added to the store.
	Inserted(id ID)
	// Accessed notifies that a resident id has been referenced.
	Accessed(id ID)
	// Victim returns the id the policy would evict next. It is only
	// called when the store is non-empty.
	Victim() ID
	// Removed notifies that id has left the store (evicted or ejected
	// externally).
	Removed(id ID)
}

// EvictionCallback observes evictions (used by the simulator to track
// which probability mass leaves the cache under interaction models A/B).
type EvictionCallback func(id ID)

// Store is a count-bounded cache: it holds at most Capacity items, as in
// the paper where the cache holds n̄(C) items of mean size s̄. It is not
// safe for concurrent use.
type Store struct {
	capacity int
	policy   Policy
	resident map[ID]struct{}
	onEvict  EvictionCallback
}

// NewStore creates a store with the given capacity and policy. It panics
// if capacity is not positive or policy is nil.
func NewStore(capacity int, policy Policy) *Store {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity %d must be positive", capacity))
	}
	if policy == nil {
		panic("cache: nil policy")
	}
	return &Store{
		capacity: capacity,
		policy:   policy,
		resident: make(map[ID]struct{}, capacity),
	}
}

// OnEvict registers a callback invoked with each evicted id.
func (s *Store) OnEvict(cb EvictionCallback) { s.onEvict = cb }

// Capacity returns the maximum number of resident items.
func (s *Store) Capacity() int { return s.capacity }

// Len returns the number of resident items.
func (s *Store) Len() int { return len(s.resident) }

// PolicyName returns the replacement policy's name.
func (s *Store) PolicyName() string { return s.policy.Name() }

// Contains reports residency without touching policy metadata or hit
// accounting (a "peek").
func (s *Store) Contains(id ID) bool {
	_, ok := s.resident[id]
	return ok
}

// Access references id: on a hit it refreshes policy metadata and
// returns true; on a miss it returns false and changes nothing
// (admission is the caller's decision, via Admit).
func (s *Store) Access(id ID) bool {
	if _, ok := s.resident[id]; ok {
		s.policy.Accessed(id)
		return true
	}
	return false
}

// Admit inserts id, evicting victims as needed. Admitting a resident id
// just refreshes it. It reports whether an insertion happened.
func (s *Store) Admit(id ID) bool {
	if _, ok := s.resident[id]; ok {
		s.policy.Accessed(id)
		return false
	}
	for len(s.resident) >= s.capacity {
		s.evictOne()
	}
	s.resident[id] = struct{}{}
	s.policy.Inserted(id)
	return true
}

// evictOne removes the policy's chosen victim.
func (s *Store) evictOne() {
	victim := s.policy.Victim()
	if _, ok := s.resident[victim]; !ok {
		panic(fmt.Sprintf("cache: policy %s chose non-resident victim %d",
			s.policy.Name(), victim))
	}
	s.removeInternal(victim)
	if s.onEvict != nil {
		s.onEvict(victim)
	}
}

// Remove ejects id if resident (external invalidation: not an eviction,
// so OnEvict is not called). It reports whether the item was resident.
func (s *Store) Remove(id ID) bool {
	if _, ok := s.resident[id]; !ok {
		return false
	}
	s.removeInternal(id)
	return true
}

func (s *Store) removeInternal(id ID) {
	delete(s.resident, id)
	s.policy.Removed(id)
}

// NewRandomPolicy returns a policy that evicts a uniformly random
// resident item — the operational meaning of interaction model B, where
// every occupant contributes the same expected value h′/n̄(C) and so a
// random victim forfeits exactly that average value.
func NewRandomPolicy(src *rng.Source) Policy {
	return &randomPolicy{src: src, index: make(map[ID]int)}
}

type randomPolicy struct {
	src   *rng.Source
	items []ID
	index map[ID]int
}

func (p *randomPolicy) Name() string { return "random" }

func (p *randomPolicy) Inserted(id ID) {
	p.index[id] = len(p.items)
	p.items = append(p.items, id)
}

func (p *randomPolicy) Accessed(ID) {}

func (p *randomPolicy) Victim() ID {
	return p.items[p.src.Intn(len(p.items))]
}

func (p *randomPolicy) Removed(id ID) {
	i, ok := p.index[id]
	if !ok {
		return
	}
	last := len(p.items) - 1
	p.items[i] = p.items[last]
	p.index[p.items[i]] = i
	p.items = p.items[:last]
	delete(p.index, id)
}
