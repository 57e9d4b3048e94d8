package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestStoreBasicHitMiss(t *testing.T) {
	s := NewStore(2, NewLRU())
	if s.Access(1) {
		t.Error("empty store should miss")
	}
	s.Admit(1)
	if !s.Access(1) {
		t.Error("admitted item should hit")
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.Hits(), s.Misses())
	}
	if s.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", s.HitRatio())
	}
}

func TestStoreCapacityEnforced(t *testing.T) {
	s := NewStore(3, NewLRU())
	for i := ID(0); i < 10; i++ {
		s.Admit(i)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if s.Evictions() != 7 {
		t.Errorf("Evictions = %d, want 7", s.Evictions())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	s := NewStore(3, NewLRU())
	s.Admit(1)
	s.Admit(2)
	s.Admit(3)
	s.Access(1) // 1 becomes most recent; 2 is now LRU
	s.Admit(4)  // should evict 2
	if s.Contains(2) {
		t.Error("LRU should have evicted 2")
	}
	for _, id := range []ID{1, 3, 4} {
		if !s.Contains(id) {
			t.Errorf("item %d should be resident", id)
		}
	}
}

func TestFIFOIgnoresAccess(t *testing.T) {
	s := NewStore(3, NewFIFO())
	s.Admit(1)
	s.Admit(2)
	s.Admit(3)
	s.Access(1) // FIFO ignores this
	s.Admit(4)  // evicts 1, the oldest
	if s.Contains(1) {
		t.Error("FIFO should have evicted 1 despite the access")
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	s := NewStore(3, NewLFU())
	s.Admit(1)
	s.Admit(2)
	s.Admit(3)
	s.Access(1)
	s.Access(1)
	s.Access(3)
	s.Admit(4) // 2 has freq 1, should go
	if s.Contains(2) {
		t.Error("LFU should have evicted 2")
	}
}

func TestLFUTieBreakFIFO(t *testing.T) {
	s := NewStore(2, NewLFU())
	s.Admit(1)
	s.Admit(2) // both freq 1; 1 older
	s.Admit(3)
	if s.Contains(1) {
		t.Error("LFU tie should evict the older item 1")
	}
}

func TestLFUFrequencyAccessor(t *testing.T) {
	p := NewLFU()
	s := NewStore(4, p)
	s.Admit(7)
	s.Access(7)
	s.Access(7)
	if p.Frequency(7) != 3 {
		t.Errorf("frequency = %d, want 3 (1 insert + 2 accesses)", p.Frequency(7))
	}
	if p.Frequency(99) != 0 {
		t.Error("unknown id should have frequency 0")
	}
}

func TestClockSecondChance(t *testing.T) {
	s := NewStore(3, NewClock())
	s.Admit(1)
	s.Admit(2)
	s.Admit(3)
	// All have ref bits set from insertion. Access 2 to re-set its bit
	// (idempotent here). First eviction sweep clears 1, 2, 3 then wraps
	// and evicts 1 (round-robin when all referenced).
	s.Admit(4)
	if s.Contains(1) {
		t.Error("clock should have evicted 1 on full sweep")
	}
	// Now 2's bit is clear (swept). Access 2 → bit set. Admit 5: hand is
	// past 2... behaviour depends on hand position; just assert capacity
	// and that 4 (freshly inserted, referenced) survived.
	s.Access(2)
	s.Admit(5)
	if !s.Contains(4) {
		t.Error("freshly inserted item should survive one sweep")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestRandomPolicyEvictsResident(t *testing.T) {
	src := rng.New(5)
	s := NewStore(4, NewRandomPolicy(src))
	for i := ID(0); i < 20; i++ {
		s.Admit(i)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

func TestStoreAdmitResidentRefreshes(t *testing.T) {
	s := NewStore(2, NewLRU())
	s.Admit(1)
	s.Admit(2)
	if s.Admit(1) { // refresh, not insert
		t.Error("admitting resident item should report false")
	}
	s.Admit(3) // evicts 2 (1 was refreshed)
	if s.Contains(2) || !s.Contains(1) {
		t.Error("refresh on admit did not update recency")
	}
}

func TestStoreRemove(t *testing.T) {
	s := NewStore(2, NewLRU())
	s.Admit(1)
	if !s.Remove(1) {
		t.Error("removing resident item should report true")
	}
	if s.Remove(1) {
		t.Error("removing absent item should report false")
	}
	if s.Contains(1) || s.Len() != 0 {
		t.Error("item still resident after Remove")
	}
	if s.Evictions() != 0 {
		t.Error("Remove should not count as eviction")
	}
}

func TestStoreOnEvictCallback(t *testing.T) {
	s := NewStore(1, NewLRU())
	var evicted []ID
	s.OnEvict(func(id ID) { evicted = append(evicted, id) })
	s.Admit(1)
	s.Admit(2)
	s.Admit(3)
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Errorf("evicted = %v, want [1 2]", evicted)
	}
}

func TestStoreResetStats(t *testing.T) {
	s := NewStore(2, NewLRU())
	s.Admit(1)
	s.Access(1)
	s.Access(9)
	s.ResetStats()
	if s.Hits() != 0 || s.Misses() != 0 || s.Insertions() != 0 {
		t.Error("ResetStats left counters")
	}
	if !s.Contains(1) {
		t.Error("ResetStats should not evict")
	}
}

func TestStoreEach(t *testing.T) {
	s := NewStore(3, NewLRU())
	s.Admit(1)
	s.Admit(2)
	seen := map[ID]bool{}
	s.Each(func(id ID) { seen[id] = true })
	if len(seen) != 2 || !seen[1] || !seen[2] {
		t.Errorf("Each visited %v", seen)
	}
}

func TestStorePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero capacity should panic")
			}
		}()
		NewStore(0, NewLRU())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil policy should panic")
			}
		}()
		NewStore(1, nil)
	}()
}

func TestNewPolicyByName(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "lfu", "clock"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("policy name %q != %q", p.Name(), name)
		}
	}
	if _, err := NewPolicy("optimal"); err == nil {
		t.Error("unknown policy name should error")
	}
}

func TestInfiniteCache(t *testing.T) {
	c := NewInfinite()
	if c.Access(1) {
		t.Error("empty infinite cache should miss")
	}
	c.Admit(1)
	if !c.Access(1) || !c.Contains(1) {
		t.Error("admitted item should hit")
	}
	if c.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v", c.HitRatio())
	}
	c.Remove(1)
	if c.Contains(1) || c.Len() != 0 {
		t.Error("Remove failed")
	}
	for i := ID(0); i < 1000; i++ {
		c.Admit(i)
	}
	if c.Len() != 1000 {
		t.Error("infinite cache should never evict")
	}
}

// Property: under any access/admit sequence, Len never exceeds capacity
// and Contains agrees with hit results, for every policy.
func TestQuickStoreInvariants(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return NewLRU() },
		func() Policy { return NewFIFO() },
		func() Policy { return NewLFU() },
		func() Policy { return NewClock() },
		func() Policy { return NewRandomPolicy(rng.New(99)) },
		func() Policy { return NewSLRU(3) },
	}
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		for _, mk := range policies {
			s := NewStore(capacity, mk())
			for _, op := range ops {
				id := ID(op % 30)
				if op%2 == 0 {
					before := s.Contains(id)
					hit := s.Access(id)
					if hit != before {
						return false
					}
				} else {
					s.Admit(id)
					if !s.Contains(id) {
						return false
					}
				}
				if s.Len() > capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses equals number of Access calls.
func TestQuickStoreAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore(4, NewLRU())
		accesses := int64(0)
		for _, op := range ops {
			id := ID(op % 20)
			if op%3 == 0 {
				s.Admit(id)
			} else {
				s.Access(id)
				accesses++
			}
		}
		return s.Hits()+s.Misses() == accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkLRUStoreChurn(b *testing.B) {
	s := NewStore(1024, NewLRU())
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ID(src.Intn(4096))
		if !s.Access(id) {
			s.Admit(id)
		}
	}
}
