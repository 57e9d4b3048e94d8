package slab

import (
	"bytes"
	"container/list"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/offheap"
	"repro/internal/rng"
	"repro/internal/testutil"
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

// TestSegmentsLiveOffHeap fills an 8 MiB store through rotation in the
// scan-miss shape — 16 KiB payloads, none repeated — and demands that the
// payload sit in mappings, not on the heap: offheap maps all 8 MiB while
// the heap grows by less than 256 KiB, the index and the segment table.
func TestSegmentsLiveOffHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the segments are heap slices")
	}
	const capacity, value = 8 << 20, 16 << 10
	v := make([]byte, value)
	var before, after runtime.MemStats
	testutil.RunFinalizers(t) // no earlier test's store is unmapped in between
	runtime.ReadMemStats(&before)
	mapped := offheap.Mapped()
	s := New(capacity, 0)
	for id := int64(0); id < 4*capacity/value; id++ {
		s.Put(id, v)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := s.Stats(); st.Rotations == 0 || st.Segments != s.MaxSegments() {
		t.Fatalf("the fill never rotated a full arena: %+v", st)
	}
	if got := offheap.Mapped() - mapped; got < capacity {
		t.Fatalf("offheap maps %d bytes for a full %d-byte arena", got, capacity)
	}
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth >= 256<<10 {
		t.Fatalf("the heap grew %d bytes filling an 8 MiB arena, want < 256 KiB: the segments belong off the heap", growth)
	}
	runtime.KeepAlive(s)
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

// TestIndexChurnRehash hammers put/delete cycles over a small id space,
// so deletions shift probe runs back all through the churn.
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

// Insert/delete churn at a fixed live count rebuilds nothing: a deletion
// shifts its probe run back instead of leaving a tombstone that would
// one day force a same-size rehash, so the index, once grown, allocates
// nothing however long the churn runs.
func TestRehashAllocFree(t *testing.T) {
	s := New(1<<20, 1<<16)
	v := payload(1, 16)
	for id := int64(0); id < 30; id++ { // 30 live in a 64-slot index
		s.Put(id, v)
	}
	next := int64(30)
	churn := func() { // a hundred deletes and inserts: a tombstone-driven rehash every few dozen would show
		for k := 0; k < 100; k++ {
			s.Delete(next - 30)
			s.Put(next, v)
			next++
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("a hundred deletes and inserts at %d live allocated %v times; want 0", s.Len(), allocs)
	}
	if s.Len() != 30 || len(s.refs) != minIndexSlots {
		t.Fatalf("%d live in %d slots; want 30 in %d", s.Len(), len(s.refs), minIndexSlots)
	}
}

// fuzzSeeds are FuzzSlabStore's seed corpus, three bytes an op (see
// fuzzOps): between them they force a growing rehash, deletions that
// shift probe runs back, rotation, a compaction that moves survivors, the entry bound
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
			tombs = append(tombs, 0, i, 5, 3, i, 0, 4, i%3, 0) // put, delete: a run shifted back each; touch a survivor
		}
		rotate = append(rotate, 0, i, 199, 2, i-3, 0) // one value a segment: the ninth Put wraps
		bound = append(bound, 7, 5, 0, 0, i, 9, 4, i-2, 0, 6, 0, 0, 5, i, 0)
	}
	// Behind the filter (protected bound 8, window 2, entry bound 6):
	// six Puts fill the store, 14 is read three times in the window,
	// then 20 and 21, each read twice, push the window's oldest out: 15,
	// never read, loses to probation's oldest, and 14 out-counts it. 30,
	// never read, is declined.
	window := []byte{7, 1, 6}
	for id := byte(10); id < 16; id++ {
		window = append(window, 0, id, 5)
	}
	window = append(window, 2, 14, 0, 2, 14, 0, 2, 14, 0, 2, 20, 0, 2, 20, 0, 0, 20, 5, 2, 21, 0, 2, 21, 0, 0, 21, 5, 0, 30, 5)
	return [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{1, 200, 1, 2, 200, 0, 0, 31, 255, 6, 0, 0, 2, 31, 0},
		grow, tombs, rotate, bound, compact, window,
	}
}

// FuzzSlabStore interleaves Put, Get, Delete, BytesLen, Has,
// EvictOldest and SetMaxEntries against a reference model — a map for
// the payloads and three slices, least recently used first, for the
// probation, protected and window lists — on an arena small enough that
// compaction and rotation fire constantly. Each input runs three times:
// under plain LRU, under segmented LRU with a protected bound of 1–8
// taken from its first byte, and with that bound behind the admission
// filter and a window of 1–2 entries taken from its second, where Get
// and BytesLen count their id first, as the byte store does. After every
// op the store and the model agree on the answer, on whether a Put was
// declined, on every victim (a rotation victim may be any live id; a
// window's least recently used entry and main's first victim compete on
// the store's own sketch; a bound or EvictOldest victim must be the
// model's oldest; compaction has none), on the length, and — auditLinks
// — on all three lists, link by link.
func FuzzSlabStore(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range fuzzModes(data) {
			fuzzOps(t, data, m)
		}
	})
}

// fuzzMode is one order an input runs under: a protected bound, and
// whether the admission filter runs, with a window of w.
type fuzzMode struct {
	p, w   int
	filter bool
}

// fuzzModes is the orders an input runs under: plain LRU, then
// segmented LRU with a protected bound from its first byte, then that
// behind the filter with a window from its second.
func fuzzModes(data []byte) []fuzzMode {
	if len(data) < 2 {
		return []fuzzMode{{}}
	}
	p := 1 + int(data[0])%8
	return []fuzzMode{{}, {p: p}, {p: p, w: 1 + int(data[1])%2, filter: true}}
}

// TestFuzzSeedsDirect runs the seed corpus through the fuzz body so a
// plain `go test` exercises it without the fuzzing engine, and checks
// the seeds reach what they are there to force.
func TestFuzzSeedsDirect(t *testing.T) {
	var grew, rotated, moved, full bool
	var spilled, won, lost, declined int
	for i, seed := range fuzzSeeds() {
		for _, m := range fuzzModes(seed) {
			t.Run(fmt.Sprintf("%d/%+v", i, m), func(t *testing.T) {
				s, c := fuzzOps(t, seed, m)
				grew = grew || len(s.refs) > minIndexSlots
				rotated = rotated || s.rotateEvicted > 0
				moved = moved || s.compactedBytes > 0
				full = full || c.demoted > 0
				spilled, won, lost, declined = spilled+c.spilled, won+c.won, lost+c.lost, declined+int(s.Declined())
			})
		}
	}
	if !grew || !rotated || !moved || !full {
		t.Fatalf("the seeds forced a growing rehash: %t, a rotation that evicts: %t, a compaction that moves: %t, a demotion from the protected list: %t; want all four",
			grew, rotated, moved, full)
	}
	if spilled == 0 || won == 0 || lost == 0 || declined == 0 {
		t.Fatalf("the seeds moved %d window entries to probation freely, %d by out-counting main's victim and evicted %d that did not, and declined %d landings; want some of each",
			spilled, won, lost, declined)
	}
}

// fuzzCounts is what a run of fuzzOps passed through: demotions from
// the protected list, and window entries that moved to probation with
// room to spare, that won a place there, and that lost it.
type fuzzCounts struct{ demoted, spilled, won, lost int }

// fuzzOps runs data's ops on a Store in mode m and returns it with what
// the run passed through.
func fuzzOps(t *testing.T, data []byte, m fuzzMode) (*Store, fuzzCounts) {
	s := New(2048, 256) // tiny: rotation fires constantly
	s.SetProtected(m.p)
	if m.filter {
		s.FilterAdmission(m.w)
	}
	p := m.p
	vals := map[int64][]byte{}
	var lists [3][]int64 // probation, protected, window; least recently used first
	var c fuzzCounts
	find := func(id int64) (int, int) {
		for l := range lists {
			if i := slices.Index(lists[l], id); i >= 0 {
				return l, i
			}
		}
		return 0, -1
	}
	take := func(id int64) int {
		l, i := find(id)
		if i < 0 {
			t.Fatalf("id %d left the store but was not in the model", id)
		}
		lists[l] = slices.Delete(lists[l], i, i+1)
		return l
	}
	forget := func(id int64) {
		take(id)
		delete(vals, id)
	}
	use := func(id int64) {
		l, i := find(id)
		if i < 0 {
			return
		}
		lists[l] = slices.Delete(lists[l], i, i+1)
		if l == probation && p > 0 {
			l = protected
		}
		lists[l] = append(lists[l], id)
		for len(lists[protected]) > p {
			lists[probation] = append(lists[probation], lists[protected][0])
			lists[protected] = lists[protected][1:]
			c.demoted++
		}
	}
	// oldest is the entry the bound or EvictOldest takes: the least
	// recently used of probation, then protected, then the window,
	// never skip.
	oldest := func(skip int64) (int64, bool) {
		for _, l := range lists {
			if len(l) > 0 && l[0] != skip {
				return l[0], true
			}
		}
		return 0, false
	}
	first := func() (int64, bool) { // main's first victim
		for _, l := range lists[:window] {
			if len(l) > 0 {
				return l[0], true
			}
		}
		return 0, false
	}
	est := func(id int64) int { return s.sketch.Estimate(id) }
	var victims []int64
	s.OnEvict(func(id int64) { victims = append(victims, id) })
	bound := 0

	for i := 0; i+2 < len(data); i += 3 {
		op, id, arg := data[i]%8, int64(data[i+1]%61), data[i+2]
		rotatedBefore := s.rotateEvicted
		_, hit := vals[id]
		list := probation // where a Put places id; -1 if it is declined
		switch op {
		case 0, 1:
			v := payload(id, int(arg)%200) // always under the segment size
			if hit {
				if take(id) == window {
					list = window
				}
				delete(vals, id) // neither bound can pick the id being written; it is re-entered below
			}
			declines := false
			if !hit && m.filter {
				list = window
				declines = s.Full() && est(id) <= 1
			}
			if s.Put(id, v) == declines {
				t.Fatalf("Put(%d, %dB) stored %t; the filter should decline it: %t", id, len(v), !declines, declines)
			}
			if declines {
				list = -1
			}
		case 2:
			if m.filter {
				s.Count(id)
			}
			got, ok := s.Get(id, nil)
			if want := vals[id]; ok != hit || !bytes.Equal(got, want) {
				t.Fatalf("Get(%d) = %x,%t; model %x,%t", id, got, ok, want, hit)
			}
			use(id)
		case 3:
			if s.Delete(id) != hit {
				t.Fatalf("Delete(%d) disagreed with model presence %t", id, hit)
			}
			if hit {
				forget(id)
			}
		case 4:
			if m.filter {
				s.Count(id)
			}
			n, ok := s.BytesLen(id)
			if want := vals[id]; ok != hit || n != len(want) {
				t.Fatalf("BytesLen(%d) = %d,%t; model %d,%t", id, n, ok, len(want), hit)
			}
			use(id)
		case 5:
			if s.Has(id) != hit {
				t.Fatalf("Has(%d) disagreed with model presence %t", id, hit)
			}
		case 6:
			s.EvictOldest()
			if want := min(len(vals), 1); len(victims) != want {
				t.Fatalf("EvictOldest reported %v with %d live", victims, len(vals))
			}
		case 7:
			bound = int(arg % 8) // 0 lifts it; it bites at the next Put
			s.SetMaxEntries(bound)
		}
		// Victims arrive rotation's first, then the window's competition's,
		// then the entry bound's.
		rotated := int(s.rotateEvicted - rotatedBefore)
		k := 0
		for ; k < rotated; k++ {
			forget(victims[k])
		}
		if op <= 1 && list >= 0 {
			vals[id] = payload(id, int(arg)%200)
			lists[list] = append(lists[list], id)
			if len(lists[window]) > m.w && !hit {
				w := lists[window][0]
				lists[window] = lists[window][1:]
				if v, ok := first(); bound > 0 && len(vals) > bound {
					loser := w
					if ok && est(w) > est(v) {
						loser = v
						take(v)
						lists[probation] = append(lists[probation], w)
						c.won++
					} else {
						c.lost++
					}
					if k == len(victims) || victims[k] != loser {
						t.Fatalf("Put(%d) evicted %v after %d rotation victims; the window's %d against main's %d (%t) should lose %d (model %v)",
							id, victims, rotated, w, v, ok, loser, lists)
					}
					delete(vals, loser)
					k++
				} else {
					lists[probation] = append(lists[probation], w)
					c.spilled++
				}
			}
		}
		skip := int64(-1) // a Put's bound passes over the id it placed
		if op <= 1 {
			skip = id
		}
		for ; k < len(victims); k++ {
			if want, ok := oldest(skip); !ok || victims[k] != want {
				t.Fatalf("op %d evicted %d (victims %v) while the model, oldest first, held %v", op, victims[k], victims, lists)
			}
			forget(victims[k])
		}
		victims = victims[:0]
		if op <= 1 && list >= 0 {
			if hit && list == probation {
				use(id) // an overwrite is a use
			}
			if bound > 0 && len(vals) > bound {
				t.Fatalf("Put left %d live past the bound of %d", len(vals), bound)
			}
		}
		if s.Len() != len(vals) {
			t.Fatalf("Len = %d, model %d", s.Len(), len(vals))
		}
		auditLinks(t, s, lists, p)
	}
	for id, want := range vals {
		if got, ok := s.Get(id, nil); !ok || !bytes.Equal(got, want) {
			t.Fatalf("final check id %d: %x,%t want %x", id, got, ok, want)
		}
	}
	return s, c
}

// auditLinks walks the three recency lists head to tail: each must visit
// slots marked as on it, each holding a live reference that a probe from
// its id's home slot reaches, in its model list's order reversed; prev
// must invert next; the ends must be none on both sides and the length
// the walk's. Together the walks must cover every live slot of the
// index — so each live slot is on exactly one list — and the protected
// list must hold at most p.
func auditLinks(t *testing.T, s *Store, lists [3][]int64, p int) {

	t.Helper()
	total := 0
	for l, order := range lists {
		back := int32(none)
		n := 0
		for i := s.lists[l].head; i != none; back, i = i, s.next[i] {
			if n == len(order) {
				t.Fatalf("list %d runs past its %d live entries", l, len(order))
			}
			if s.on[i] != uint8(l) {
				t.Fatalf("slot %d is on list %d but marked for %d", i, l, s.on[i])
			}
			if ref := s.refs[i]; ref == refEmpty {
				t.Fatalf("slot %d on list %d holds no live reference", i, l)
			}
			if j, ok := s.findSlot(s.keys[i]); !ok || j != int(i) {
				t.Fatalf("id %d lives in slot %d, but its probe finds %d, %t", s.keys[i], i, j, ok)
			}
			if s.prev[i] != back {
				t.Fatalf("prev[%d] = %d, but list %d reached it from %d", i, s.prev[i], l, back)
			}
			if want := order[len(order)-1-n]; s.keys[i] != want {
				t.Fatalf("position %d from the head of list %d holds id %d, model %d (model lists, oldest first: %v)", n, l, s.keys[i], want, lists)
			}
			n++
		}
		if n != len(order) || s.lists[l].tail != back || s.lists[l].len != n {
			t.Fatalf("list %d: walked %d slots ending at %d; want %d ending at tail %d, length %d",
				l, n, back, len(order), s.lists[l].tail, s.lists[l].len)
		}
		total += n
	}
	live := 0
	for _, ref := range s.refs {
		if ref != refEmpty {
			live++
		}
	}
	if live != total || live != s.live {
		t.Fatalf("%d live slots in the index, %d on the lists, Len %d", live, total, s.live)
	}
	if s.lists[protected].len > p {
		t.Fatalf("protected list holds %d, past its bound of %d", s.lists[protected].len, p)
	}
}

// TestPutAdmittedBypassesFilter checks that a full filtered store turns
// a never-seen id away on Put but stores it on PutAdmitted, evicting to
// its entry bound as Put would.
func TestPutAdmittedBypassesFilter(t *testing.T) {
	s := New(1<<20, 0)
	s.SetMaxEntries(4)
	s.FilterAdmission(1)
	v := []byte("payload")
	for id := int64(1); id <= 4; id++ {
		if !s.Put(id, v) {
			t.Fatalf("Put(%d) into a store with room declined", id)
		}
	}
	if s.Put(100, v) || s.Has(100) || s.Declined() != 1 {
		t.Fatalf("Put of a never-seen id into a full store: Has %v, Declined %d; want false, 1",
			s.Has(100), s.Declined())
	}
	if !s.PutAdmitted(101, v) || !s.Has(101) {
		t.Fatal("PutAdmitted did not store a never-seen id")
	}
	if s.Len() != 4 || s.Declined() != 1 {
		t.Errorf("after PutAdmitted: Len %d, Declined %d; want 4, 1", s.Len(), s.Declined())
	}
}

// TestFilterSizes checks the admission filter's reported sizes: none
// without the filter, the window asked for (at least 1) and 24 bytes of
// sketch a bound entry with it.
func TestFilterSizes(t *testing.T) {
	s := New(1<<20, 0)
	if s.SketchBytes() != 0 || s.WindowEntries() != 0 {
		t.Fatalf("unfiltered store: SketchBytes %d, WindowEntries %d; want 0, 0",
			s.SketchBytes(), s.WindowEntries())
	}
	s.SetMaxEntries(1024)
	s.FilterAdmission(0)
	if s.WindowEntries() != 1 {
		t.Errorf("FilterAdmission(0): WindowEntries %d, want 1", s.WindowEntries())
	}
	if got := s.SketchBytes(); got != 24*1024 {
		t.Errorf("SketchBytes at 1024 entries = %d, want %d", got, 24*1024)
	}
	s.FilterAdmission(8)
	if s.WindowEntries() != 8 {
		t.Errorf("FilterAdmission(8): WindowEntries %d, want 8", s.WindowEntries())
	}
}
