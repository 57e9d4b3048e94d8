package store

import (
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/prefetcher/fetch"
)

// recorded returns s with its evictions appended to *evicted.
func recorded(s *Store, evicted *[]fetch.ID) *Store {
	s.OnEvict(func(id fetch.ID) { *evicted = append(*evicted, id) })
	return s
}

func put(s *Store, ids ...fetch.ID) {
	for _, id := range ids {
		s.Put(id, []byte{byte(id)})
	}
}

func TestSLRUNewEntriesProbationary(t *testing.T) {
	var evicted []fetch.ID
	s := recorded(NewSLRU(3, 2), &evicted)
	put(s, 1, 2, 3, 4) // nothing was re-referenced: the victim is probation's oldest
	if !slices.Equal(evicted, []fetch.ID{1}) {
		t.Fatalf("evicted %v; want [1]", evicted)
	}
}

func TestSLRUPromotionProtects(t *testing.T) {
	s := NewSLRU(3, 2)
	put(s, 1)
	s.Get(1) // promoted
	put(s, 2, 3)
	for id := fetch.ID(10); id < 20; id++ { // a scan of new ids
		put(s, id)
	}
	if !s.Contains(1) {
		t.Fatal("a scan evicted the protected entry")
	}
}

func TestSLRUProtectedCapDemotes(t *testing.T) {
	var evicted []fetch.ID
	s := recorded(NewSLRU(10, 2), &evicted)
	for id := fetch.ID(1); id <= 3; id++ {
		put(s, id)
		s.Get(id) // all three promoted; past the bound of 2, 1 goes back to probation
	}
	put(s, 4, 5, 6, 7, 8, 9, 10) // full, the newer probationers ahead of 1
	put(s, 11, 12)
	if !slices.Equal(evicted, []fetch.ID{1, 4}) || !s.Contains(2) || !s.Contains(3) {
		t.Fatalf("evicted %v; want the demoted 1 first, then 4, and 2 and 3 kept", evicted)
	}
}

func TestSLRUFallsBackToProtected(t *testing.T) {
	var evicted []fetch.ID
	s := recorded(NewSLRU(2, 5), &evicted)
	put(s, 1)
	s.Get(1)
	put(s, 2)
	s.Get(2) // both protected, probation empty
	put(s, 3)
	if !slices.Equal(evicted, []fetch.ID{1}) || !s.Contains(2) || !s.Contains(3) {
		t.Fatalf("evicted %v, 2 and 3 resident %t %t; want the protected list's oldest, 1", evicted, s.Contains(2), s.Contains(3))
	}
}

// A loyal working set read over and over, interleaved with a one-shot
// scan: SLRU keeps all of it, and at least as much as LRU.
func TestSLRUScanResistanceVsLRU(t *testing.T) {
	work := []fetch.ID{1, 2, 3, 4}
	run := func(s *Store) int {
		scan, src := fetch.ID(100), rng.New(7)
		for i := 0; i < 3000; i++ {
			w := work[src.Intn(len(work))]
			if _, ok := s.Get(w); !ok {
				put(s, w)
			}
			put(s, scan)
			scan++
		}
		kept := 0
		for _, w := range work {
			if s.Contains(w) {
				kept++
			}
		}
		return kept
	}
	slru, lru := run(NewSLRU(8, 4)), run(NewLRU(8))
	if slru < len(work) || slru < lru {
		t.Fatalf("SLRU kept %d/%d of the working set under a scan, LRU %d", slru, len(work), lru)
	}
}

func TestConstructorsPanic(t *testing.T) {
	for name, mk := range map[string]func(){
		"NewLRU(0)":     func() { NewLRU(0) },
		"NewSLRU(0, 1)": func() { NewSLRU(0, 1) },
		"NewSLRU(4, 0)": func() { NewSLRU(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			mk()
		}()
	}
}

// An entry-bounded store has no byte bound: a []byte that fits a segment
// is copied in, and Get hands back an equal copy; a larger one, and any
// other value, is held by reference.
func TestEntryStorePayloads(t *testing.T) {
	s := NewLRU(4)
	small, large := []byte("abc"), make([]byte, entrySegmentBytes)
	s.Put(1, small)
	s.Put(2, large)
	s.Put(3, "three")
	got, _ := s.Get(1)
	if g := got.([]byte); string(g) != "abc" || &g[0] == &small[0] {
		t.Fatalf("Get(1) = %q; want an equal copy of %q", g, small)
	}
	if got, _ := s.Get(2); &got.([]byte)[0] != &large[0] {
		t.Fatal("a []byte larger than a segment was copied; want it held by reference")
	}
	if got, ok := s.Get(3); !ok || got != "three" {
		t.Fatalf("Get(3) = %v,%t", got, ok)
	}
	if st := s.SlabStats(); st.Rotations != 0 || st.SegmentBytes != entrySegmentBytes {
		t.Fatalf("%+v; want %d-byte segments and no rotation", st, entrySegmentBytes)
	}
}

// TestNewConfig checks New's sizing: CapacityBytes is required, the
// entry bound defaults to one entry per 64 bytes (at least 16), and the
// admission filter is sized to that bound.
func TestNewConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without CapacityBytes succeeded")
	}
	for _, c := range []struct {
		cfg     Config
		entries int
	}{
		{Config{CapacityBytes: 64 << 10}, 1024},
		{Config{CapacityBytes: 100}, 16},
		{Config{CapacityBytes: 64 << 10, MaxEntries: 32}, 32},
	} {
		s, err := New(c.cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", c.cfg, err)
		}
		declined, sketchBytes, window := s.Admission()
		if declined != 0 || sketchBytes != 24*c.entries || window != min(windowEntries, c.entries/2) {
			t.Errorf("New(%+v): Admission = %d, %d, %d; want 0, %d, %d", c.cfg,
				declined, sketchBytes, window, 24*c.entries, min(windowEntries, c.entries/2))
		}
		for id := fetch.ID(0); id < fetch.ID(2*c.entries); id++ {
			s.Put(id, []byte{1})
		}
		if s.Len() != c.entries {
			t.Errorf("New(%+v): %d resident after %d puts, want the bound %d",
				c.cfg, s.Len(), 2*c.entries, c.entries)
		}
	}
}
