package slab

import (
	"bytes"
	"container/list"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/workload"
)

// payload builds a deterministic value for (id, n) so cross-checks can
// regenerate the expected bytes without storing them.
func payload(id int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint64(id)*31 + uint64(i)*7 + 1)
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New(1<<20, 4096)
	for id := int64(0); id < 200; id++ {
		if !s.Put(id, payload(id, int(id)%257)) {
			t.Fatalf("Put(%d) refused", id)
		}
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	dst := make([]byte, 0, 512)
	for id := int64(0); id < 200; id++ {
		got, ok := s.Get(id, dst[:0])
		if !ok {
			t.Fatalf("Get(%d) missing", id)
		}
		if want := payload(id, int(id)%257); !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %x, want %x", id, got, want)
		}
		n, ok := s.BytesLen(id)
		if !ok || n != int(id)%257 {
			t.Fatalf("BytesLen(%d) = %d,%t; want %d,true", id, n, ok, int(id)%257)
		}
	}
	if _, ok := s.Get(999, nil); ok {
		t.Fatal("Get(999) found an entry that was never put")
	}
}

// TestGetAppends pins the dst contract: Get appends, preserving what
// the caller already accumulated (the GetMultiBytes gather relies on
// this to pack a whole session into one buffer).
func TestGetAppends(t *testing.T) {
	s := New(1<<20, 4096)
	s.Put(1, []byte("alpha"))
	s.Put(2, []byte("beta"))
	buf := []byte("x")
	buf, ok := s.Get(1, buf)
	if !ok {
		t.Fatal("Get(1) missing")
	}
	buf, ok = s.Get(2, buf)
	if !ok {
		t.Fatal("Get(2) missing")
	}
	if string(buf) != "xalphabeta" {
		t.Fatalf("accumulated buffer = %q, want %q", buf, "xalphabeta")
	}
}

func TestOverwrite(t *testing.T) {
	s := New(1<<20, 4096)
	var evicted []int64
	s.OnEvict(func(id int64) { evicted = append(evicted, id) })
	s.Put(7, []byte("old"))
	s.Put(7, []byte("newer-value"))
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", s.Len())
	}
	got, ok := s.Get(7, nil)
	if !ok || string(got) != "newer-value" {
		t.Fatalf("Get(7) = %q,%t after overwrite", got, ok)
	}
	if len(evicted) != 0 {
		t.Fatalf("overwrite fired eviction callback for %v", evicted)
	}
}

func TestDelete(t *testing.T) {
	s := New(1<<20, 4096)
	s.Put(1, []byte("a"))
	if !s.Delete(1) {
		t.Fatal("Delete(1) = false for a present id")
	}
	if s.Delete(1) {
		t.Fatal("Delete(1) = true for an absent id")
	}
	if _, ok := s.Get(1, nil); ok {
		t.Fatal("Get(1) found a deleted entry")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete, want 0", s.Len())
	}
}

func TestOversizedRefused(t *testing.T) {
	s := New(4096, 256)
	big := make([]byte, 256) // 256+12 > segment
	if s.Put(1, big) {
		t.Fatal("Put accepted a payload that cannot fit a segment")
	}
	if s.Fits(len(big)) {
		t.Fatal("Fits accepted an oversized payload")
	}
	if !s.Fits(200) {
		t.Fatal("Fits refused a payload that fits")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after refused put, want 0", s.Len())
	}
}

// TestRotationEvicts fills a deliberately tiny arena far past its
// capacity: the ring must recycle segments, every displaced id must be
// reported exactly once while still live, and the survivors must be the
// most recently written ids with intact payloads.
func TestRotationEvicts(t *testing.T) {
	s := New(1024, 256) // 4 segments of 256B
	live := map[int64][]byte{}
	s.OnEvict(func(id int64) {
		if _, ok := live[id]; !ok {
			t.Fatalf("evicted id %d that was not live", id)
		}
		delete(live, id)
	})
	const n = 500
	for id := int64(0); id < n; id++ {
		v := payload(id, 20+int(id)%40)
		if !s.Put(id, v) {
			t.Fatalf("Put(%d) refused", id)
		}
		live[id] = v
	}
	st := s.Stats()
	if st.Rotations == 0 || st.RotateEvicted == 0 {
		t.Fatalf("no rotation churn on an over-capacity fill: %+v", st)
	}
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, model has %d live", s.Len(), len(live))
	}
	if len(live) == 0 {
		t.Fatal("rotation evicted everything, including the newest entries")
	}
	for id, want := range live {
		got, ok := s.Get(id, nil)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("survivor %d: got %x,%t want %x", id, got, ok, want)
		}
	}
	// The newest id is always among the survivors.
	if _, ok := live[n-1]; !ok {
		t.Fatal("newest id was evicted")
	}
}

// TestRotationSkipsOverwrittenStaleRecords pins the header-walk
// subtlety: an id overwritten into a later segment leaves a stale
// in-segment record behind; rotating the old segment must not evict
// the id's current copy.
func TestRotationSkipsOverwrittenStaleRecords(t *testing.T) {
	s := New(512, 256) // 2 segments
	var evicted []int64
	s.OnEvict(func(id int64) { evicted = append(evicted, id) })
	s.Put(1, payload(1, 100)) // seg 0
	s.Put(2, payload(2, 100)) // seg 0 (fills it)
	s.Put(1, payload(1, 90))  // moves id 1 to seg 1
	// Force rotation back onto seg 0: only id 2 still lives there.
	s.Put(3, payload(3, 100))
	s.Put(4, payload(4, 100))
	for _, id := range evicted {
		if id == 1 {
			t.Fatalf("rotation evicted id 1 via its stale record (evicted: %v)", evicted)
		}
	}
	if got, ok := s.Get(1, nil); !ok || !bytes.Equal(got, payload(1, 90)) {
		t.Fatalf("id 1 lost after rotation over its stale record: %x,%t", got, ok)
	}
}

// TestRotationTakesOldestAfterCompaction pins the victim rule across a
// compaction: rotation takes the segment the cursor entered longest ago,
// which after a compaction has re-entered a lower-numbered segment is not
// the next one by slice index.
func TestRotationTakesOldestAfterCompaction(t *testing.T) {
	s := New(768, 256) // 3 segments of 256 B; a 20 B value is a 32 B record, 8 to a segment
	var evicted []int64
	s.OnEvict(func(id int64) { evicted = append(evicted, id) })
	put := func(from, to int64) {
		for id := from; id < to; id++ {
			s.Put(id, payload(id, 20))
		}
	}
	put(0, 8)   // seg 0 full
	put(10, 18) // seg 0 all live: seg 1 is allocated
	for id := int64(0); id < 6; id++ {
		s.Delete(id) // seg 0 keeps 6 and 7: a quarter live
	}
	put(20, 26) // compacts seg 0 — 6 and 7 slide to its front — and fills it behind them
	if st := s.Stats(); st.Compactions != 1 || st.CompactedBytes != 64 || st.Segments != 2 {
		t.Fatalf("after the compaction: %+v; want 1 compaction moving 64 B over 2 segments", st)
	}
	put(30, 38) // seg 1, entered before seg 0 was re-entered, is all live: seg 2 is allocated
	if len(evicted) != 0 || s.Stats().Segments != 3 {
		t.Fatalf("evicted %v over %d segments before the arena was full", evicted, s.Stats().Segments)
	}
	put(40, 41) // rotation: seg 1, not seg 0 at index cur+1
	if want := []int64{10, 11, 12, 13, 14, 15, 16, 17}; !slices.Equal(evicted, want) {
		t.Fatalf("rotation evicted %v, want the oldest-entered segment's %v", evicted, want)
	}
	for _, id := range []int64{6, 7, 20, 25, 30, 37, 40} {
		if got, ok := s.Get(id, nil); !ok || !bytes.Equal(got, payload(id, 20)) {
			t.Fatalf("survivor %d: %x,%t", id, got, ok)
		}
	}
}

// TestCompactionSparesPinnedHotSegment writes a hot set first and from
// then on only hits it, while cold values churn through the entry bound.
// The hot set's segment stays all live and the cursor never re-enters
// it, so it is the oldest-entered segment for good: the cursor must
// reclaim the cold segment's dead space rather than grow until rotation
// takes the hot set.
func TestCompactionSparesPinnedHotSegment(t *testing.T) {
	s := New(2048, 256) // 8 segments of 256 B; a 20 B value is a 32 B record, 8 to a segment
	s.SetMaxEntries(10) // the 8 hot values and the 2 newest cold ones
	for id := int64(0); id < 8; id++ {
		s.Put(id, payload(id, 20))
	}
	for id := int64(100); id < 400; id++ {
		for hot := int64(0); hot < 8; hot++ {
			if _, ok := s.BytesLen(hot); !ok {
				t.Fatalf("hot value %d gone before cold Put %d: %+v", hot, id, s.Stats())
			}
		}
		s.Put(id, payload(id, 20))
	}
	if st := s.Stats(); st.Segments != 2 || st.Rotations != 0 || st.Compactions == 0 {
		t.Fatalf("%+v; want 2 segments, no rotation, compactions", st)
	}
}

// lruModel is a plain LRU cache of ids — the hit count a store evicting
// only through its entry bound must reproduce.
type lruModel struct {
	cap   int
	order *list.List // front = most recently used
	at    map[int64]*list.Element
}

func newLRUModel(n int) *lruModel {
	return &lruModel{cap: n, order: list.New(), at: map[int64]*list.Element{}}
}

// access reports a hit, or admits id, evicting the least recently used.
func (m *lruModel) access(id int64) bool {
	if e, ok := m.at[id]; ok {
		m.order.MoveToFront(e)
		return true
	}
	m.at[id] = m.order.PushFront(id)
	if m.order.Len() > m.cap {
		delete(m.at, m.order.Remove(m.order.Back()).(int64))
	}
	return false
}

// getOrPut replays one request on s: a hit, or a miss that puts the
// value, as the engine lands one. It reports the hit.
func getOrPut(t *testing.T, s *Store, id int64, size int, dst []byte) ([]byte, bool) {
	t.Helper()
	got, ok := s.Get(id, dst[:0])
	if ok && !bytes.Equal(got, payload(id, size)) {
		t.Fatalf("id %d corrupted", id)
	}
	if !ok && !s.Put(id, payload(id, size)) {
		t.Fatalf("Put(%d) refused", id)
	}
	return got, ok
}

// TestCompactionKeepsArenaNearLive replays the page-batch workload's
// store on a Store — 8-key sessions over 400 pages and 1,600 shared
// objects, 1 KiB values, a 512-entry bound in an 8 MiB budget — where the
// entry bound does all the evicting. The arena must stay within two
// segments of the ~0.5 MiB live, rotation must evict nothing, and the
// hits must be exactly a pure LRU's.
func TestCompactionKeepsArenaNearLive(t *testing.T) {
	const entries, size = 512, 1024
	s := New(8<<20, 0)
	s.SetMaxEntries(entries)
	model := newLRUModel(entries)
	sessions := workload.NewSessions(workload.SessionConfig{Pages: 400, Fanout: 8, Objects: 1600},
		rng.NewStream(1, "page-batch"))
	var keys []cache.ID
	dst := make([]byte, 0, size)
	hits, want := 0, 0
	for n := 0; n < 20_000; n++ {
		keys = sessions.NextInto(keys[:0])
		for _, k := range keys {
			var ok bool
			if dst, ok = getOrPut(t, s, int64(k), size, dst); ok {
				hits++
			}
			if model.access(int64(k)) {
				want++
			}
		}
	}
	st := s.Stats()
	t.Logf("%d hits; %+v", hits, st)
	if st.Segments > 2 || st.RotateEvicted != 0 || st.Compactions == 0 || hits != want {
		t.Fatalf("%d segments, %d evicted by rotation, %d compactions, %d hits; want ≤ 2, 0, > 0 and the LRU model's %d",
			st.Segments, st.RotateEvicted, st.Compactions, hits, want)
	}
}

// TestNoCompactionWhereNothingDies replays the two workloads whose store
// the compaction rule must leave as it was: scan-miss (16 KiB values
// never requested twice, 4,096 entries in 8 MiB: every record is live
// until rotation takes it) and hot-obj (1,000 Zipf-hot 256 B values and a
// 1-in-128 cold tail, 4,096 entries in 8 MiB: one segment that never
// fills). Neither may compact, and scan-miss must still rotate.
func TestNoCompactionWhereNothingDies(t *testing.T) {
	dst := make([]byte, 0, 16<<10)
	scan := New(8<<20, 0)
	scan.SetMaxEntries(4096)
	for id := int64(0); id < 4096; id++ {
		dst, _ = getOrPut(t, scan, id*7919, 16<<10, dst)
	}
	hot := New(8<<20, 0)
	hot.SetMaxEntries(4096)
	zipf, src := rng.NewZipf(1000, 0.9), rng.NewStream(1, "hot-obj")
	for n := int64(0); n < 100_000; n++ {
		id := int64(zipf.Sample(src))
		switch {
		case n < 1000:
			id = n
		case n%128 == 0:
			id = 1_000_000 + n
		}
		dst, _ = getOrPut(t, hot, id, 256, dst)
	}
	sc, ho := scan.Stats(), hot.Stats()
	if sc.Compactions != 0 || sc.RotateEvicted == 0 || ho.Compactions != 0 || ho.Rotations != 0 {
		t.Fatalf("scan-miss %+v, hot-obj %+v: want no compaction on either, and rotation on scan-miss alone", sc, ho)
	}
}

func TestStatsLiveBytes(t *testing.T) {
	s := New(1<<20, 4096)
	s.Put(1, make([]byte, 100))
	s.Put(2, make([]byte, 50))
	if got, want := s.Stats().LiveBytes, int64(100+50+2*headerBytes); got != want {
		t.Fatalf("LiveBytes = %d, want %d", got, want)
	}
	s.Delete(1)
	if got, want := s.Stats().LiveBytes, int64(50+headerBytes); got != want {
		t.Fatalf("LiveBytes after delete = %d, want %d", got, want)
	}
}

func TestZeroLengthValue(t *testing.T) {
	s := New(1<<20, 4096)
	if !s.Put(5, nil) {
		t.Fatal("Put(5, nil) refused")
	}
	got, ok := s.Get(5, nil)
	if !ok || len(got) != 0 {
		t.Fatalf("Get(5) = %x,%t; want empty,true", got, ok)
	}
	n, ok := s.BytesLen(5)
	if !ok || n != 0 {
		t.Fatalf("BytesLen(5) = %d,%t; want 0,true", n, ok)
	}
}

// TestIndexChurnRehash hammers put/delete cycles over a small id space
// so tombstones accumulate and the same-size rehash purge path runs.
func TestIndexChurnRehash(t *testing.T) {
	s := New(1<<20, 1<<16)
	for round := 0; round < 2000; round++ {
		id := int64(round % 97)
		s.Put(id, payload(id, 16))
		if round%3 == 0 {
			s.Delete(int64((round * 7) % 97))
		}
	}
	dst := make([]byte, 0, 32)
	seen := 0
	for id := int64(0); id < 97; id++ {
		if got, ok := s.Get(id, dst[:0]); ok {
			seen++
			if !bytes.Equal(got, payload(id, 16)) {
				t.Fatalf("id %d corrupted after churn", id)
			}
		}
	}
	if seen != s.Len() {
		t.Fatalf("probed %d live ids, Len says %d", seen, s.Len())
	}
}

// fuzzSeeds are FuzzSlabStore's seed corpus, three bytes an op (see
// fuzzOps): between them they force a growing rehash, a tombstone-only
// rehash, rotation, a compaction that moves survivors, the entry bound
// and EvictOldest, with reads in between to shuffle the recency order
// each has to carry across.
func fuzzSeeds() [][]byte {
	var grow, tombs, rotate, bound, compact []byte
	for i := byte(0); i < 8; i++ {
		compact = append(compact, 0, i, 20) // eight 32 B records fill the first segment
	}
	for i := byte(0); i < 5; i++ {
		compact = append(compact, 3, i, 0, 2, 7-i%2, 0) // delete five, touch a survivor
	}
	for i := byte(8); i < 30; i++ {
		compact = append(compact, 0, i, 20, 4, i-2, 0) // the ninth Put compacts 5–7 to the front
	}
	for i := byte(0); i < 60; i++ {
		grow = append(grow, 0, i, 0, 2, i/2, 0) // 60 empty values: the 64-slot table doubles on the way
		if i < 3 {
			tombs = append(tombs, 0, i, 5) // three survivors for the list to keep
		} else {
			tombs = append(tombs, 0, i, 5, 3, i, 0, 4, i%3, 0) // put, delete: a tombstone each; touch a survivor
		}
		rotate = append(rotate, 0, i, 199, 2, i-3, 0) // one value a segment: the ninth Put wraps
		bound = append(bound, 7, 5, 0, 0, i, 9, 4, i-2, 0, 6, 0, 0, 5, i, 0)
	}
	return [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{1, 200, 1, 2, 200, 0, 0, 31, 255, 6, 0, 0, 2, 31, 0},
		grow, tombs, rotate, bound, compact,
	}
}

// FuzzSlabStore interleaves Put, Get, Delete, BytesLen, Has,
// EvictOldest and SetMaxEntries against a reference model — a map for
// the payloads and a slice, least recently used first, for the order —
// on an arena small enough that compaction and rotation fire constantly.
// After every op the store and the model agree on the answer, on every
// victim (a rotation victim may be any live id; a bound or EvictOldest
// victim must be the model's oldest; compaction has none), on the
// length, and — auditLinks — on the whole recency list, link by link.
func FuzzSlabStore(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzOps(t, data) })
}

// TestFuzzSeedsDirect runs the seed corpus through the fuzz body so a
// plain `go test` exercises it without the fuzzing engine, and checks
// the seeds reach what they are there to force.
func TestFuzzSeedsDirect(t *testing.T) {
	var grew, rotated, moved bool
	for i, seed := range fuzzSeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			s := fuzzOps(t, seed)
			grew = grew || len(s.refs) > minIndexSlots
			rotated = rotated || s.rotateEvicted > 0
			moved = moved || s.compactedBytes > 0
		})
	}
	if !grew || !rotated || !moved {
		t.Fatalf("the seeds forced a growing rehash: %t, a rotation that evicts: %t, a compaction that moves: %t; want all three",
			grew, rotated, moved)
	}
}

func fuzzOps(t *testing.T, data []byte) *Store {
	s := New(2048, 256) // tiny: rotation fires constantly
	vals := map[int64][]byte{}
	var order []int64 // least recently used first
	forget := func(id int64) {
		i := slices.Index(order, id)
		if i < 0 {
			t.Fatalf("id %d left the store but was not in the model", id)
		}
		order = slices.Delete(order, i, i+1)
		delete(vals, id)
	}
	use := func(id int64) {
		if i := slices.Index(order, id); i >= 0 {
			order = append(slices.Delete(order, i, i+1), id)
		}
	}
	var victims []int64
	s.OnEvict(func(id int64) { victims = append(victims, id) })
	bound := 0

	for i := 0; i+2 < len(data); i += 3 {
		op, id, arg := data[i]%8, int64(data[i+1]%61), data[i+2]
		rotatedBefore := s.rotateEvicted
		switch op {
		case 0, 1:
			v := payload(id, int(arg)%200) // always under the segment size
			if _, ok := vals[id]; ok {
				forget(id) // neither bound can pick the id being written; it is re-entered below
			}
			if !s.Put(id, v) {
				t.Fatalf("Put(%d, %dB) refused", id, len(v))
			}
		case 2:
			got, ok := s.Get(id, nil)
			if want, wok := vals[id]; ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("Get(%d) = %x,%t; model %x,%t", id, got, ok, want, wok)
			}
			use(id)
		case 3:
			_, wok := vals[id]
			if s.Delete(id) != wok {
				t.Fatalf("Delete(%d) disagreed with model presence %t", id, wok)
			}
			if wok {
				forget(id)
			}
		case 4:
			n, ok := s.BytesLen(id)
			if want, wok := vals[id]; ok != wok || n != len(want) {
				t.Fatalf("BytesLen(%d) = %d,%t; model %d,%t", id, n, ok, len(want), wok)
			}
			use(id)
		case 5:
			if _, wok := vals[id]; s.Has(id) != wok {
				t.Fatalf("Has(%d) disagreed with model presence %t", id, wok)
			}
		case 6:
			s.EvictOldest()
			if want := min(len(order), 1); len(victims) != want {
				t.Fatalf("EvictOldest reported %v with %d live", victims, len(order))
			}
		case 7:
			bound = int(arg % 8) // 0 lifts it; it bites at the next Put
			s.SetMaxEntries(bound)
		}
		// Victims arrive rotation's first, then the recency list's.
		rotated := int(s.rotateEvicted - rotatedBefore)
		for k, v := range victims {
			if k >= rotated && (len(order) == 0 || v != order[0]) {
				t.Fatalf("op %d evicted %d (victims %v) while the model, oldest first, held %v", op, v, victims, order)
			}
			forget(v)
		}
		victims = victims[:0]
		if op <= 1 {
			vals[id] = payload(id, int(arg)%200)
			order = append(order, id)
			if bound > 0 && len(order) > bound {
				t.Fatalf("Put left %d live past the bound of %d", len(order), bound)
			}
		}
		if s.Len() != len(order) {
			t.Fatalf("Len = %d, model %d", s.Len(), len(order))
		}
		auditLinks(t, s, order)
	}
	for id, want := range vals {
		if got, ok := s.Get(id, nil); !ok || !bytes.Equal(got, want) {
			t.Fatalf("final check id %d: %x,%t want %x", id, got, ok, want)
		}
	}
	return s
}

// auditLinks walks the recency list both ways: head to tail it must
// visit exactly the live slots, each holding a live reference, in the
// model's order reversed; prev must invert next; and the ends must be
// none on both sides.
func auditLinks(t *testing.T, s *Store, order []int64) {
	t.Helper()
	back := int32(none)
	n := 0
	for i := s.head; i != none; back, i = i, s.next[i] {
		if n == len(order) {
			t.Fatalf("the list runs past its %d live entries", len(order))
		}
		if ref := s.refs[i]; ref == refEmpty || ref == refTomb {
			t.Fatalf("slot %d on the list holds no live reference (%d)", i, ref)
		}
		if s.prev[i] != back {
			t.Fatalf("prev[%d] = %d, but the list reached it from %d", i, s.prev[i], back)
		}
		if want := order[len(order)-1-n]; s.keys[i] != want {
			t.Fatalf("position %d from the head holds id %d, model %d (model order, oldest first: %v)", n, s.keys[i], want, order)
		}
		n++
	}
	if n != len(order) || s.tail != back {
		t.Fatalf("walked %d slots ending at %d; want %d ending at tail %d", n, back, len(order), s.tail)
	}
}
