// Package lockfix is a lockscope fixture: blocking-under-mutex and
// leaked-lock seeds next to the critical-section idioms the engine
// actually uses, which must stay clean.
package lockfix

import (
	"context"
	"sync"
	"time"
)

// Fetcher mirrors the engine's backend seam: a dynamic Fetch is
// arbitrary I/O.
type Fetcher interface {
	Fetch(ctx context.Context, id uint64) ([]byte, error)
}

type shard struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	items   map[uint64][]byte
	pending chan uint64
	wg      sync.WaitGroup
	f       Fetcher
}

// --- seeded violations ---------------------------------------------------

// RecvUnderLock blocks on a channel receive inside the critical section.
func (s *shard) RecvUnderLock() uint64 {
	s.mu.Lock()
	id := <-s.pending // want `channel receive while s\.mu is held`
	s.mu.Unlock()
	return id
}

// SendUnderLock blocks on a channel send inside the critical section.
func (s *shard) SendUnderLock(id uint64) {
	s.mu.Lock()
	s.pending <- id // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

// SleepUnderLock parks the whole shard.
func (s *shard) SleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while s\.mu is held`
	s.mu.Unlock()
}

// WaitUnderLock blocks on a WaitGroup while holding the lock.
func (s *shard) WaitUnderLock() {
	s.mu.Lock()
	s.wg.Wait() // want `sync\.WaitGroup\.Wait while s\.mu is held`
	s.mu.Unlock()
}

// FetchUnderLock performs backend I/O inside the critical section.
func (s *shard) FetchUnderLock(ctx context.Context, id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.f.Fetch(ctx, id) // want `interface Fetch call while s\.mu is held`
	return err
}

// SelectUnderLock blocks on a default-less select.
func (s *shard) SelectUnderLock(done chan struct{}) {
	s.mu.Lock()
	select { // want `select without default while s\.mu is held`
	case id := <-s.pending:
		s.items[id] = nil
	case <-done:
	}
	s.mu.Unlock()
}

// LeakOnEarlyReturn forgets the unlock on the error path.
func (s *shard) LeakOnEarlyReturn(id uint64) []byte {
	s.mu.Lock()
	v, ok := s.items[id]
	if !ok {
		return nil // want `return while s\.mu is still locked`
	}
	s.mu.Unlock()
	return v
}

// LeakOnFallthrough locks and never unlocks at all.
func (s *shard) LeakOnFallthrough(id uint64) {
	s.mu.Lock() // want `locked here but not unlocked on the fall-through return path`
	s.items[id] = nil
}

// RLockLeak mismatches the read-lock pair.
func (s *shard) RLockLeak(id uint64) []byte {
	s.rw.RLock()
	return s.items[id] // want `return while s\.rw#r is still locked`
}

// --- clean idioms --------------------------------------------------------

// Balanced is the engine's standard shape: bare map touches between
// Lock and Unlock, blocking work outside.
func (s *shard) Balanced(id uint64, v []byte) {
	s.mu.Lock()
	s.items[id] = v
	s.mu.Unlock()
	s.wg.Wait() // after the unlock: fine
}

// DeferUnlock covers every exit path.
func (s *shard) DeferUnlock(id uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.items[id]
	if !ok {
		return nil, false
	}
	return v, true
}

// UnlockBeforeBlocking releases the lock, then blocks — the shrunken
// critical section the refactors established.
func (s *shard) UnlockBeforeBlocking(ctx context.Context, id uint64) error {
	s.mu.Lock()
	_, resident := s.items[id]
	s.mu.Unlock()
	if resident {
		return nil
	}
	_, err := s.f.Fetch(ctx, id)
	return err
}

// NonBlockingPush is the shed-on-full queue push: a select with a
// default never blocks, even under the lock.
func (s *shard) NonBlockingPush(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.pending <- id:
		return true
	default:
		return false
	}
}

// consumeLocked follows the *Locked convention: the caller holds the
// lock, so the unpaired Unlock-free body is fine.
func (s *shard) consumeLocked(id uint64) []byte {
	v := s.items[id]
	delete(s.items, id)
	return v
}

// UnlockInCallee releases a lock its caller took — a lock handoff.
// Not flagged: unlocking an unheld lock is the caller-holds
// convention.
func (s *shard) UnlockInCallee(id uint64) []byte {
	v := s.items[id]
	s.mu.Unlock()
	return v
}

// HandoffWaived locks, then returns through the releasing helper — the
// deliberate handoff shape, waived with a reason.
func (s *shard) HandoffWaived(id uint64) []byte {
	s.mu.Lock()
	//lint:allow lockscope lock handed to UnlockInCallee, released there
	return s.UnlockInCallee(id)
}

// BarrierCycle is Close's lock-cycling barrier: empty critical
// sections in a loop.
func (s *shard) BarrierCycle(others []*shard) {
	for _, o := range others {
		o.mu.Lock()
		o.mu.Unlock()
	}
}

// GoroutineDoesNotInherit launches a worker while holding the lock; the
// worker's own blocking is its business.
func (s *shard) GoroutineDoesNotInherit(id uint64) {
	s.mu.Lock()
	go func() {
		id := <-s.pending
		_ = id
	}()
	s.items[id] = nil
	s.mu.Unlock()
}
