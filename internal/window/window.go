// Package window counts events over a sliding span of time: the one
// rate primitive behind the controller's λ̂, ŝ̄ and n̄(F) and each
// link's ρ̂ and ρ̂′.
//
// A Window keeps one running total per field, bumped with plain atomic
// adds and never reset. Time is the caller's: when At(now) enters one
// of the span's K buckets, the totals are copied, under a mutex, into a
// ring of K snapshots of the totals at each bucket's start — so a
// manual clock drives a window as a wall clock does. A read subtracts
// the snapshot at the start of the oldest bucket still inside the span
// from the totals; a sequence count makes it retry if the ring moved
// under it.
package window

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// K is the number of buckets, Fields the number of totals a window
// keeps, DefaultSpan the seconds a window built with span 0 covers.
const (
	K           = 4
	Fields      = 6
	DefaultSpan = 10

	scale  = 1 << 16       // totals are fixed-point, in 1/65536ths; they wrap, and differences stay exact
	noHead = math.MinInt64 // no At yet
)

// Window is a sliding-span event counter, safe for concurrent use. A
// read covers between K−1 and K bucket widths.
type Window struct {
	width  float64       // seconds per bucket
	first  atomic.Uint64 // float64 bits: the time of the first At
	last   atomic.Uint64 // float64 bits: the time of the latest At
	head   atomic.Int64  // the newest bucket At has entered
	seq    atomic.Uint64 // odd while advance rewrites the ring
	mu     sync.Mutex    // serialises advance
	totals [Fields]atomic.Int64
	starts [K][Fields]atomic.Int64
}

// New returns a window over span seconds, DefaultSpan for 0. It panics
// on a negative or non-finite span.
func New(span float64) *Window {
	if span == 0 {
		span = DefaultSpan
	}
	if !(span > 0) || math.IsInf(span, 0) {
		panic("window: span must be positive and finite")
	}
	w := &Window{width: span / K}
	w.head.Store(noHead)
	return w
}

// Width returns the seconds one bucket covers.
func (w *Window) Width() float64 { return w.width }

// Add adds v ≥ 0 to field f, in the newest bucket: an event that
// carries no time of its own (a size learned when a fetch completes)
// needs no At.
func (w *Window) Add(f int, v float64) { w.totals[f].Add(int64(math.Round(v * scale))) }

// At moves the ring forward if now has entered a new bucket, so the
// Adds that follow count at time now. An event older than the newest
// bucket counts in it.
func (w *Window) At(now float64) {
	if e := int64(math.Floor(now / w.width)); e > w.head.Load() {
		w.advance(e, now)
	}
	w.last.Store(math.Float64bits(now))
}

// advance records the totals as the start of every bucket up to e. An
// event racing it may count in the bucket before or after the boundary.
func (w *Window) advance(e int64, now float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.head.Load()
	if e <= h {
		return
	}
	w.seq.Add(1)
	if h == noHead {
		w.first.Store(math.Float64bits(now))
	}
	for n := max(h, e-K) + 1; n <= e; n++ {
		for f := range w.totals {
			w.starts[uint64(n)%K][f].Store(w.totals[f].Load())
		}
	}
	w.head.Store(e)
	w.seq.Add(1)
}

// Now returns the latest time At has been given, 0 before any (times
// are non-negative): where a reader without a clock of its own reads
// the window.
func (w *Window) Now() float64 { return math.Float64frombits(w.last.Load()) }

// Sum returns every field's sum over the window ending at now, and the
// seconds it covers: from the start of its oldest bucket, or from the
// first event if that is later, to now. Both are zero before any event,
// and a read at a time before the newest bucket reads at its start.
// Each sum lies between 0 and its field's total.
func (w *Window) Sum(now float64) (sums [Fields]float64, span float64) {
	for {
		seq := w.seq.Load()
		if seq&1 != 0 {
			runtime.Gosched() // advance holds the ring: let it finish
			continue
		}
		h := w.head.Load()
		if h == noHead {
			return sums, 0
		}
		at := max(now, float64(h)*w.width)
		lo := int64(math.Floor(at/w.width)) - K + 1
		if lo <= h { // else every bucket with events has left the window
			start := &w.starts[uint64(lo)%K]
			for f := range sums {
				s := start[f].Load() // before the total: a total read later is no smaller
				sums[f] = float64(w.totals[f].Load()-s) / scale
			}
		}
		if w.seq.Load() == seq {
			return sums, max(at-max(float64(lo)*w.width, math.Float64frombits(w.first.Load())), 0)
		}
		sums = [Fields]float64{}
	}
}
