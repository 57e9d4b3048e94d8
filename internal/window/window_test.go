package window

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
)

func TestSumCoversTheSpan(t *testing.T) {
	w := New(8) // 2 s buckets
	if sums, span := w.Sum(5); sums != ([Fields]float64{}) || span != 0 || w.Now() != 0 {
		t.Fatalf("an empty window reads %v over %v s at %v", sums, span, w.Now())
	}
	for i := 0; i < 200; i++ { // 10 events a second from t = 0.05, weighing 0.25 each
		now := 0.05 + float64(i)/10
		w.At(now)
		w.Add(0, 1)
		w.Add(1, 0.25)
	}
	if now := w.Now(); now != 19.95 {
		t.Fatalf("Now = %v, want the last event's 19.95", now)
	}
	// At 19.95 the window holds buckets 6..9, from 12 s: 80 events over 7.95 s.
	sums, span := w.Sum(19.95)
	if sums[0] != 80 || sums[1] != 20 || math.Abs(span-7.95) > 1e-9 {
		t.Fatalf("Sum(19.95) = %v over %v s, want 80 and 20 over 7.95 s", sums[:2], span)
	}
	// Early on the window starts at the first event, not before it.
	w2 := New(8)
	w2.At(3.5)
	w2.Add(0, 1)
	w2.At(5.5)
	w2.Add(0, 1)
	if sums, span := w2.Sum(5.5); sums[0] != 2 || span != 2 {
		t.Fatalf("Sum(5.5) = %v over %v s, want 2 events over the 2 s since the first", sums[0], span)
	}
	// A window idle past its span reads nothing.
	if sums, _ := w.Sum(40); sums[0] != 0 {
		t.Fatalf("Sum 20 s after the last event = %v, want 0", sums[0])
	}
}

func TestStaleAndTimelessEvents(t *testing.T) {
	w := New(8)
	w.Add(0, 5) // before any At: zeroed by the first advance
	w.At(100)
	w.Add(0, 1)
	w.At(50)
	w.Add(0, 1) // older than the ring: counts in the newest bucket
	w.Add(1, 3)
	w.At(120)
	w.Add(0, 1) // skips more than a ring: every bucket is reused
	if sums, _ := w.Sum(120); sums[0] != 1 || sums[1] != 0 {
		t.Fatalf("after a jump past the ring: %v, want only the last event", sums[:2])
	}
	w = New(8)
	w.At(100)
	w.Add(0, 1)
	w.At(50)
	w.Add(0, 1)
	w.Add(1, 3)
	if sums, _ := w.Sum(100); sums[0] != 2 || sums[1] != 3 {
		t.Fatalf("stale and timeless events: %v, want 2 and 3 in the newest bucket", sums[:2])
	}
}

func TestConcurrentAdds(t *testing.T) {
	w := New(1)
	var wg sync.WaitGroup
	const writers, each = 8, 2000
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.At(0.5)
				w.Add(0, 1)
				w.Add(1, 0.5)
				_, _ = w.Sum(0.5)
			}
		}()
	}
	wg.Wait()
	if sums, _ := w.Sum(0.5); sums[0] != writers*each || sums[1] != writers*each/2 {
		t.Fatalf("sums %v after %d adds each, want %d and %d", sums[:2], writers*each, writers*each, writers*each/2)
	}
}

// TestSumsStayInRangeAcrossBoundaries reads the window while writers
// carry it across thousands of bucket boundaries: a read that met the
// ring mid-advance would subtract the newest bucket's snapshot, about
// the current totals, and read about nothing. Every sum must lie
// between 0 and the events added so far, and once the ring is full no
// lower than the three whole buckets a read covers, less the events
// still between their At and their Add.
func TestSumsStayInRangeAcrossBoundaries(t *testing.T) {
	w := New(1) // 0.25 s buckets
	const writers, readers, each = 4, 4, 5000
	var ticks, issued atomic.Int64
	var stop atomic.Bool
	var wg, rg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.At(float64(ticks.Add(1)) * w.Width() / 16) // a boundary every 16 events
				issued.Add(1)
				w.Add(0, 1)
				w.Add(1, 0.5)
			}
		}()
	}
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for reads := 0; !stop.Load() || reads == 0; reads++ {
				before := issued.Load()
				sums, span := w.Sum(w.Now())
				n := float64(issued.Load())
				least := 0.0
				if before >= 5*16 { // the head is past bucket 4: buckets h−3..h−1 hold 16 ticks each
					least = 3*16 - writers
				}
				if sums[0] < least || sums[0] > n || sums[1] < least/2 || sums[1] > n/2 || span < 0 || span > 1 {
					t.Errorf("read %v over %v s with %v events added, want at least %v", sums[:2], span, n, least)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
}

func BenchmarkSum(b *testing.B) {
	w := New(0)
	for i := 0; i < 1000; i++ {
		w.At(float64(i) * 0.01)
		w.Add(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Sum(9.99)
	}
}

// TestWindowAllocFree gates the window's per-request calls, At and Add,
// also when each At enters a new bucket and advance moves the ring: the
// per-request gates of the engine run inside one bucket, so they do not
// see advance. It counts every allocation of 100 boundary crossings, not
// their integer mean.
func TestWindowAllocFree(t *testing.T) {
	w := New(4)
	now := 0.0
	step := func() {
		now += w.Width()
		w.At(now)
		w.Add(0, 1)
	}
	testutil.AllocsInPhase(t, 0, "At and Add across 100 bucket boundaries", step, func() {
		for i := 0; i < 100; i++ {
			step()
		}
	})
	if sums, _ := w.Sum(now); sums[0] != K {
		t.Fatalf("the window holds %v events, want %d (one a bucket)", sums[0], K)
	}
}
