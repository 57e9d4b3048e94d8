package prefetcher_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/prefetcher"
)

// listModel is the replacement order NewLRUCache and NewSLRUCache
// promise, written with plain slices, least recently used first. Under
// LRU (p == 0) everything lives on lists[0]. Under SLRU a new entry
// starts on probation (lists[0]), a hit on probation moves it to the
// most recent end of the protected list (lists[1]) — whose least recent
// entry, once the list holds more than p, goes back to the most recent
// end of probation — and a hit on protected refreshes it there. A Put of
// a resident id is a hit. The victim, chosen before the new entry goes
// in, is probation's least recent entry, or protected's while probation
// is empty.
type listModel struct {
	n, p    int
	lists   [2][]prefetcher.ID
	vals    map[prefetcher.ID]any
	evicted []prefetcher.ID
}

func newListModel(n, p int) *listModel {
	return &listModel{n: n, p: p, vals: map[prefetcher.ID]any{}}
}

func (m *listModel) len() int { return len(m.lists[0]) + len(m.lists[1]) }

// take removes id from whichever list holds it and reports which.
func (m *listModel) take(id prefetcher.ID) int {
	for l := range m.lists {
		if i := slices.Index(m.lists[l], id); i >= 0 {
			m.lists[l] = slices.Delete(m.lists[l], i, i+1)
			return l
		}
	}
	panic(fmt.Sprintf("id %d is on no list", id))
}

func (m *listModel) touch(id prefetcher.ID) {
	if m.take(id) == 0 && m.p == 0 {
		m.lists[0] = append(m.lists[0], id)
		return
	}
	m.lists[1] = append(m.lists[1], id)
	if len(m.lists[1]) > m.p {
		d := m.lists[1][0]
		m.lists[1] = m.lists[1][1:]
		m.lists[0] = append(m.lists[0], d)
	}
}

func (m *listModel) get(id prefetcher.ID) (any, bool) {
	v, ok := m.vals[id]
	if ok {
		m.touch(id)
	}
	return v, ok
}

func (m *listModel) put(id prefetcher.ID, v any) {
	if _, ok := m.vals[id]; ok {
		m.vals[id] = v
		m.touch(id)
		return
	}
	if m.len() == m.n {
		l := 0
		if len(m.lists[0]) == 0 {
			l = 1
		}
		victim := m.lists[l][0]
		m.lists[l] = m.lists[l][1:]
		delete(m.vals, victim)
		m.evicted = append(m.evicted, victim)
	}
	m.lists[0] = append(m.lists[0], id)
	m.vals[id] = v
}

// builtinCache is NewLRUCache(n) for p == 0, NewSLRUCache(n, p) else,
// with its evictions recorded in *evicted.
func builtinCache(n, p int, evicted *[]prefetcher.ID) prefetcher.Cache {
	c := prefetcher.NewLRUCache(n)
	if p > 0 {
		c = prefetcher.NewSLRUCache(n, p)
	}
	c.OnEvict(func(id prefetcher.ID) { *evicted = append(*evicted, id) })
	return c
}

// sameValue compares payloads as the engine's callers see them: bytes
// by content (a cache may hand back a copy), anything else by ==.
func sameValue(got, want any) bool {
	if w, ok := want.([]byte); ok {
		g, ok := got.([]byte)
		return ok && bytes.Equal(g, w)
	}
	return got == want
}

// TestBuiltinCachesMatchListModel holds NewLRUCache and NewSLRUCache to
// listModel op for op — Get's hit or miss and value, Contains, Len and
// the OnEvict id sequence — over seeded random Put/Get/Contains/Len
// streams, at every n in {1, 2, 3, 8, 64} and every protected bound p
// from 1 to n. Payloads mix small and empty []byte, []byte larger than a
// 64 KiB arena segment, ints and strings.
func TestBuiltinCachesMatchListModel(t *testing.T) {
	big := [][]byte{bytes.Repeat([]byte{7}, 96<<10), bytes.Repeat([]byte{9}, 2<<20)}
	for _, n := range []int{1, 2, 3, 8, 64} {
		for p := 0; p <= n; p++ {
			t.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(t *testing.T) {
				var evicted []prefetcher.ID
				c, m := builtinCache(n, p, &evicted), newListModel(n, p)
				r := rand.New(rand.NewSource(int64(n*1000 + p)))
				ids := 2*n + 3
				for op := 0; op < 4000; op++ {
					id := prefetcher.ID(r.Intn(ids))
					switch k := r.Intn(10); {
					case k < 4:
						var v any
						switch r.Intn(8) {
						case 0:
							v = int(id) * 7
						case 1:
							v = fmt.Sprint("item-", id, "-", op)
						case 2:
							v = big[r.Intn(len(big))]
						default:
							b := make([]byte, r.Intn(300))
							r.Read(b)
							v = b
						}
						c.Put(id, v)
						m.put(id, v)
					case k < 8:
						got, ok := c.Get(id)
						want, wok := m.get(id)
						if ok != wok || (ok && !sameValue(got, want)) {
							t.Fatalf("op %d: Get(%d) = %v,%t; model %v,%t", op, id, got, ok, want, wok)
						}
					case k < 9:
						if _, wok := m.vals[id]; c.Contains(id) != wok {
							t.Fatalf("op %d: Contains(%d) = %t; model %t", op, id, !wok, wok)
						}
					}
					if c.Len() != m.len() {
						t.Fatalf("op %d: Len = %d; model %d", op, c.Len(), m.len())
					}
					if !slices.Equal(evicted, m.evicted) {
						t.Fatalf("op %d: evicted %v; model %v", op, evicted, m.evicted)
					}
				}
			})
		}
	}
}

// TestSLRUPutOfResidentPromotes pins that a Put of a resident id is a
// hit: under SLRU it leaves probation for the protected list, so the
// next three new ids evict the two probationers and then each other.
func TestSLRUPutOfResidentPromotes(t *testing.T) {
	var evicted []prefetcher.ID
	c := builtinCache(3, 1, &evicted)
	for _, id := range []prefetcher.ID{1, 2, 3, 1, 4, 5, 6} {
		c.Put(id, []byte{byte(id)})
	}
	if want := []prefetcher.ID{2, 3, 4}; !slices.Equal(evicted, want) || !c.Contains(1) {
		t.Fatalf("evicted %v, 1 resident %t; want %v and the promoted 1 kept", evicted, c.Contains(1), want)
	}
}

// TestSLRUPutWithEmptyProbation pins the victim of a Put that finds
// probation empty and the protected list full: the protected list's
// least recent entry, never the id being put.
func TestSLRUPutWithEmptyProbation(t *testing.T) {
	for _, n := range []int{1, 2} {
		var evicted []prefetcher.ID
		c := builtinCache(n, n, &evicted)
		for id := prefetcher.ID(1); id <= prefetcher.ID(n); id++ {
			c.Put(id, []byte{byte(id)})
			c.Get(id) // promoted: probation is empty again
		}
		c.Put(9, []byte{9})
		if !slices.Equal(evicted, []prefetcher.ID{1}) || !c.Contains(9) || c.Len() != n {
			t.Fatalf("n=p=%d: evicted %v, 9 resident %t, Len %d; want [1], true, %d", n, evicted, c.Contains(9), c.Len(), n)
		}
	}
}
