package bytestore

import (
	"testing"

	"repro/prefetcher"
)

// BenchmarkStoreGetBytesHit is the store's share of an engine byte hit:
// 512 resident 1 KiB values read round-robin into a reused buffer.
func BenchmarkStoreGetBytesHit(b *testing.B) {
	s, err := New(Config{CapacityBytes: 8 << 20, MaxEntries: 512})
	if err != nil {
		b.Fatal(err)
	}
	for id := prefetcher.ID(0); id < 512; id++ {
		s.LandBytes(id, val(id, 1024), false)
	}
	dst := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if dst, ok = s.GetBytes(prefetcher.ID(i&511), dst[:0]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreLandBytesChurn is the store's share of a miss landing:
// never-repeating ids through a full store, so every Put evicts — at
// 1 KiB through the 512-entry bound (chain-obj's and page-batch's
// shape), at 16 KiB through segment rotation (scan-miss's).
func BenchmarkStoreLandBytesChurn(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"1K", 1 << 10}, {"16K", 16 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(Config{CapacityBytes: 8 << 20, MaxEntries: 512})
			if err != nil {
				b.Fatal(err)
			}
			evicted := 0
			s.OnEvict(func(prefetcher.ID) { evicted++ })
			v := val(1, bc.size)
			for id := prefetcher.ID(0); id < 1024; id++ {
				s.LandBytes(id, v, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.LandBytes(prefetcher.ID(1024+i), v, false)
			}
			if b.N > 1024 && evicted < b.N {
				b.Fatalf("%d Puts evicted %d", b.N, evicted)
			}
		})
	}
}
