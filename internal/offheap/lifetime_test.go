package offheap_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/offheap"
	"repro/internal/predict"
	"repro/internal/slab"
	"repro/internal/testutil"
)

// owner stands for the cache a slab.Store serves: it holds the Store, and
// the Store's OnEvict closure holds it — the cycle bytestore builds, in
// which a finalizer on the Store itself would never run.
type owner struct {
	store   *slab.Store
	evicted int
}

// fillStore builds a Store of four segBytes segments, writes it through
// rotation and drops it.
func fillStore(segBytes int) {
	o := &owner{store: slab.New(4*segBytes, segBytes)}
	o.store.OnEvict(func(int64) { o.evicted++ })
	v := make([]byte, segBytes/4)
	for id := int64(0); id < 32; id++ {
		o.store.Put(id, v)
	}
}

// fillMarkov shows a table enough distinct ids that every stripe takes
// rows and most grow at least once (freeing the rows they had), then
// drops it.
func fillMarkov() {
	m := predict.NewConcurrentMarkov1()
	for id := 0; id < 1000; id++ {
		m.Observe(cache.ID(id))
	}
}

// TestMappingsFollowTheirOwners builds, fills and drops a thousand slab
// Stores and a thousand Markov tables and then demands that the mappings
// went back with them: Mapped returns to within one segment of where it
// started. A leak keeps every table's rows and every store's segments.
func TestMappingsFollowTheirOwners(t *testing.T) {
	const owners, segBytes = 1000, 4096
	testutil.RunFinalizers(t)
	base := offheap.Mapped()
	for i := 0; i < owners; i++ {
		fillStore(segBytes)
		fillMarkov()
		if i%100 == 99 {
			// Off-heap bytes do not pace the collector, so nothing else
			// would run it often enough to bound the live mappings.
			testutil.RunFinalizers(t)
		}
	}
	for round := 0; ; round++ {
		testutil.RunFinalizers(t)
		left := offheap.Mapped() - base
		if left <= segBytes {
			return
		}
		if round == 10 {
			t.Fatalf("%d bytes still mapped after %d stores and %d tables were dropped and collected; want at most one %d-byte segment",
				left, owners, owners, segBytes)
		}
	}
}
