package bytestore

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/prefetcher"
)

// overflowBytes is the []byte payload the store holds boxed.
func overflowBytes(s *Store) int {
	_, _, overflow, _ := s.Footprint()
	return int(overflow)
}

func val(id prefetcher.ID, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(id)*13 + i)
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := New(Config{CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for id := prefetcher.ID(0); id < 64; id++ {
		s.Put(id, val(id, 100))
	}
	if s.Len() != 64 {
		t.Fatalf("Len = %d, want 64", s.Len())
	}
	for id := prefetcher.ID(0); id < 64; id++ {
		v, ok := s.Get(id)
		if !ok || !bytes.Equal(v.([]byte), val(id, 100)) {
			t.Fatalf("Get(%d) = %v,%t", id, v, ok)
		}
		got, ok := s.GetBytes(id, nil)
		if !ok || !bytes.Equal(got, val(id, 100)) {
			t.Fatalf("GetBytes(%d) mismatch", id)
		}
		n, ok := s.BytesLen(id)
		if !ok || n != 100 {
			t.Fatalf("BytesLen(%d) = %d,%t", id, n, ok)
		}
	}
	if _, ok := s.Get(999); ok {
		t.Fatal("Get(999) hit")
	}
	if _, ok := s.GetBytes(999, nil); ok {
		t.Fatal("GetBytes(999) hit")
	}
}

// TestPolicyEvictionReported pins the count-bound stream: admitting
// past MaxEntries must evict through the policy, drop the slab payload
// and report each victim exactly once. The landings are speculative, so
// the admission filter lets every one in.
func TestPolicyEvictionReported(t *testing.T) {
	s, err := New(Config{CapacityBytes: 1 << 20, MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	evicted := map[prefetcher.ID]int{}
	s.OnEvict(func(id prefetcher.ID) { evicted[id]++ })
	for id := prefetcher.ID(0); id < 50; id++ {
		s.LandBytes(id, val(id, 32), true)
	}
	if s.Len() != 16 {
		t.Fatalf("Len = %d, want 16", s.Len())
	}
	if len(evicted) != 50-16 {
		t.Fatalf("%d victims reported, want %d", len(evicted), 50-16)
	}
	for id, n := range evicted {
		if n != 1 {
			t.Fatalf("id %d reported %d times", id, n)
		}
		if _, ok := s.GetBytes(id, nil); ok {
			t.Fatalf("victim %d still byte-resident", id)
		}
		if s.Contains(id) {
			t.Fatalf("victim %d still resident", id)
		}
	}
}

// TestRotationEvictionReported pins the byte-bound stream: a byte
// budget far below the entry budget forces segment rotation, whose
// victims must leave the policy layer and be reported. The landings are
// speculative, past the admission filter.
func TestRotationEvictionReported(t *testing.T) {
	s, err := New(Config{CapacityBytes: 2048, SegmentBytes: 512, MaxEntries: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	live := map[prefetcher.ID]bool{}
	s.OnEvict(func(id prefetcher.ID) {
		if !live[id] {
			t.Fatalf("reported victim %d was not live", id)
		}
		delete(live, id)
	})
	for id := prefetcher.ID(0); id < 200; id++ {
		s.LandBytes(id, val(id, 64), true)
		live[id] = true
	}
	if s.SlabStats().Rotations == 0 {
		t.Fatal("no rotations on an over-budget fill")
	}
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(live))
	}
	for id := range live {
		got, ok := s.GetBytes(id, nil)
		if !ok || !bytes.Equal(got, val(id, 64)) {
			t.Fatalf("survivor %d corrupt or missing", id)
		}
	}
}

// TestOverflowValues pins the fallback: non-[]byte and oversized
// payloads are still resident (Put never drops), served through Get,
// and declined by the byte path.
func TestOverflowValues(t *testing.T) {
	s, err := New(Config{CapacityBytes: 4096, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, "not bytes")
	s.Put(2, make([]byte, 1024)) // > segment: boxed
	if !s.Contains(1) || !s.Contains(2) {
		t.Fatal("overflow values not resident")
	}
	if v, ok := s.Get(1); !ok || v.(string) != "not bytes" {
		t.Fatalf("Get(1) = %v,%t", v, ok)
	}
	if v, ok := s.Get(2); !ok || len(v.([]byte)) != 1024 {
		t.Fatalf("Get(2) = %v,%t", v, ok)
	}
	if _, ok := s.GetBytes(1, nil); ok {
		t.Fatal("GetBytes served a non-byte payload")
	}
	if _, ok := s.BytesLen(2); ok {
		t.Fatal("BytesLen served an oversized boxed payload")
	}
	// Shape changes move the payload between stores without duplicating.
	s.Put(1, val(1, 10))
	if got, ok := s.GetBytes(1, nil); !ok || !bytes.Equal(got, val(1, 10)) {
		t.Fatal("byte payload after shape change not in slab")
	}
	s.Put(1, "boxed again")
	if _, ok := s.GetBytes(1, nil); ok {
		t.Fatal("stale slab payload survived shape change back to boxed")
	}
	if v, ok := s.Get(1); !ok || v.(string) != "boxed again" {
		t.Fatalf("Get(1) after shape change = %v,%t", v, ok)
	}
}

// TestOverflowByteBudget pins the overflow map's memory bound:
// oversized payloads bypass the arena but are charged against
// CapacityBytes, evicting policy victims instead of accumulating
// MaxEntries full-size boxed values.
func TestOverflowByteBudget(t *testing.T) {
	const capacity = 8 << 10
	s, err := New(Config{CapacityBytes: capacity, MaxEntries: 1024, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	evicted := 0
	s.OnEvict(func(prefetcher.ID) { evicted++ })
	const payload = 2 << 10 // > segment: every Put lands in overflow
	for id := prefetcher.ID(0); id < 64; id++ {
		s.Put(id, val(id, payload))
	}
	if overflowBytes(s) > capacity {
		t.Fatalf("overflowBytes = %d exceeds CapacityBytes %d", overflowBytes(s), capacity)
	}
	if want := capacity / payload; s.Len() != want || evicted != 64-want {
		t.Fatalf("Len/evicted = %d/%d, want %d/%d", s.Len(), evicted, want, 64-want)
	}
	// Survivors still serve byte-for-byte through the boxed path.
	for id := prefetcher.ID(60); id < 64; id++ {
		v, ok := s.Get(id)
		if !ok || !bytes.Equal(v.([]byte), val(id, payload)) {
			t.Fatalf("survivor %d corrupt or missing", id)
		}
	}
	// Overwriting an overflow entry must not double-charge the budget.
	before := overflowBytes(s)
	s.Put(63, val(63, payload))
	if overflowBytes(s) != before {
		t.Fatalf("overwrite changed overflowBytes %d -> %d", before, overflowBytes(s))
	}
	// A shape change back to the slab debits the overflow charge.
	s.Put(63, val(63, 64))
	if overflowBytes(s) != before-payload {
		t.Fatalf("shape change left overflowBytes = %d, want %d", overflowBytes(s), before-payload)
	}
	// One payload larger than the whole budget is still admitted — Put
	// never drops — and the next overflow Put reclaims it.
	huge := val(999, 2*capacity)
	s.Put(999, huge)
	if v, ok := s.Get(999); !ok || !bytes.Equal(v.([]byte), huge) {
		t.Fatal("over-budget payload not resident")
	}
	s.Put(1000, val(1000, payload))
	if s.Contains(999) {
		t.Fatal("over-budget payload survived the next overflow Put")
	}
	if overflowBytes(s) > capacity {
		t.Fatalf("overflowBytes = %d after reclaim, want <= %d", overflowBytes(s), capacity)
	}
}

// TestGetBytesAppends pins the dst contract the multi-gather relies on.
func TestGetBytesAppends(t *testing.T) {
	s, err := New(Config{CapacityBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, []byte("aa"))
	s.Put(2, []byte("bb"))
	buf := []byte("x")
	buf, _ = s.GetBytes(1, buf)
	buf, _ = s.GetBytes(2, buf)
	if string(buf) != "xaabb" {
		t.Fatalf("accumulated = %q", buf)
	}
}

func TestPolicies(t *testing.T) {
	s, err := New(Config{CapacityBytes: 1 << 16, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for id := prefetcher.ID(0); id < 20; id++ {
		s.Put(id, val(id, 16))
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero CapacityBytes accepted")
	}
}

func TestFactory(t *testing.T) {
	fn, err := Factory(Config{CapacityBytes: 1 << 20, MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	for i := 0; i < shards; i++ {
		c := fn(i, shards)
		st, ok := c.(*Store)
		if !ok {
			t.Fatalf("factory returned %T", c)
		}
		for id := prefetcher.ID(0); id < 100; id++ {
			st.Put(id, val(id, 8))
		}
		if st.Len() != 16 { // 64 entries ceil-split 4 ways
			t.Fatalf("shard %d Len = %d, want 16", i, st.Len())
		}
	}
	if _, err := Factory(Config{CapacityBytes: 0}); err == nil {
		t.Fatal("factory accepted zero capacity")
	}
}

// TestEngineIntegration runs the store under a real engine: the
// eviction streams must keep the engine's resident accounting exact,
// and a churned workload must end with Stats' invariants intact.
func TestEngineIntegration(t *testing.T) {
	factory, err := Factory(Config{CapacityBytes: 64 << 10, MaxEntries: 128, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fetcher := prefetcher.FetcherFunc(func(_ context.Context, id prefetcher.ID) (prefetcher.Item, error) {
		return prefetcher.Item{ID: id, Size: 1, Data: val(id, 64+int(id)%128)}, nil
	})
	eng, err := prefetcher.New(fetcher,
		prefetcher.WithBandwidth(1e6),
		prefetcher.WithShards(4),
		prefetcher.WithCacheFactory(factory),
		prefetcher.WithWorkers(2),
		prefetcher.WithMaxPrefetch(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	get := func(id prefetcher.ID) {
		it, err := eng.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want := val(id, 64+int(id)%128)
		if !bytes.Equal(it.Data.([]byte), want) {
			t.Fatalf("Get(%d) payload mismatch", id)
		}
	}
	// Churn phase: a scan far past both budgets drives policy and
	// rotation evictions through the engine's accounting.
	for i := 0; i < 5000; i++ {
		get(prefetcher.ID(i % 700))
	}
	// Hot phase: a working set inside the entry budget must serve hits.
	for i := 0; i < 500; i++ {
		get(prefetcher.ID(i % 40))
	}
	if err := eng.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Hits == 0 {
		t.Fatal("no hits through the slab store")
	}
	if st.CacheLen < 0 || st.CacheLen > 128 {
		t.Fatalf("CacheLen = %d outside [0,128] — eviction streams diverged", st.CacheLen)
	}
	if st.PrefetchUsed+st.PrefetchWasted > st.PrefetchIssued {
		t.Fatalf("used %d + wasted %d > issued %d", st.PrefetchUsed, st.PrefetchWasted, st.PrefetchIssued)
	}
}

func TestFactoryShardSplitNames(t *testing.T) {
	for shards := 1; shards <= 8; shards *= 2 {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			fn, err := Factory(Config{CapacityBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if c := fn(0, shards); c == nil {
				t.Fatal("nil cache from factory")
			}
		})
	}
}

// TestSlabPutCompactionAllocFree gates the landing of a miss on a store
// whose entry bound does the evicting (chain-obj's and page-batch's
// shape: 1 KiB values, 512 entries, 8 MiB): never-repeating landings,
// speculative so that the admission filter lets each in, reclaim the
// arena by compacting segments in place, over and over, and allocate
// nothing per landing while doing it.
func TestSlabPutCompactionAllocFree(t *testing.T) {
	s, err := New(Config{CapacityBytes: 8 << 20, MaxEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	v := val(1, 1<<10)
	id := prefetcher.ID(0)
	for ; id < 4096; id++ { // both segments allocated, the index at its working size
		s.LandBytes(id, v, true)
	}
	before := s.SlabStats()
	allocs := testing.AllocsPerRun(20_000, func() {
		s.LandBytes(id, v, true)
		id++
	})
	st := s.SlabStats()
	if allocs != 0 {
		t.Fatalf("PutBytes through the entry bound allocated %v times per call; want 0", allocs)
	}
	if st.Compactions-before.Compactions < 10 || st.Segments > 2 || st.Rotations != 0 {
		t.Fatalf("the churn compacted %d times over %d segments with %d rotations; want ≥ 10, ≤ 2 and 0",
			st.Compactions-before.Compactions, st.Segments, st.Rotations)
	}
}

// TestPutBytesCopies pins the BytesPutter contract the engine's borrowed
// landings rely on: whatever its size, nothing the store keeps aliases
// the slice it was handed — a payload that fits a segment is copied into
// the arena, one that does not is cloned into the overflow map — and
// residency, evictions and the byte budget are Put's.
func TestPutBytesCopies(t *testing.T) {
	const capacity = 8 << 10
	s, err := New(Config{CapacityBytes: capacity, MaxEntries: 64, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 100, 1000, 2 << 10, 3 << 10} {
		id := prefetcher.ID(size)
		lent := val(id, size)
		s.PutBytes(id, lent)
		for i := range lent {
			lent[i] = 0xEE // the lender reuses its buffer
		}
		got, ok := s.GetBytes(id, nil)
		if !ok {
			var v any
			if v, ok = s.Get(id); ok { // oversized: served boxed
				got = v.([]byte)
			}
		}
		if !ok || !bytes.Equal(got, val(id, size)) {
			t.Fatalf("a %d-byte payload put by copy changed with the lender's buffer (resident %v)", size, ok)
		}
	}
	arena, arenaMax, overflow, overflowMax := s.Footprint()
	if overflow != 5<<10 || overflowMax != capacity || arena < 1100 || arena > arenaMax || arenaMax != capacity {
		t.Fatalf("Footprint = %d/%d arena, %d/%d overflow", arena, arenaMax, overflow, overflowMax)
	}
	// A shape change through PutBytes moves the payload, as Put's does.
	s.PutBytes(2<<10, val(7, 64))
	if got, ok := s.GetBytes(2<<10, nil); !ok || !bytes.Equal(got, val(7, 64)) || overflowBytes(s) != 3<<10 {
		t.Fatalf("oversized → arena through PutBytes: served %v, %d overflow bytes left", ok, overflowBytes(s))
	}
	// The one payload allowed past the whole budget raises the ceiling it
	// is held to, until the next overflow Put reclaims it.
	s.PutBytes(999, val(999, 2*capacity))
	if _, _, overflow, overflowMax = s.Footprint(); overflow != 2*capacity || overflowMax != overflow || s.Len() != 1 {
		t.Fatalf("over-budget payload: %d/%d overflow bytes, %d resident", overflow, overflowMax, s.Len())
	}
}
