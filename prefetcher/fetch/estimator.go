package fetch

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/window"
)

// latRingSize is the sample window the p95 estimate is computed over.
// Small enough to sort cheaply, large enough that the 95th percentile
// is a real order statistic (the 61st of 64) rather than the max.
const latRingSize = 64

// latRecompute is how many new samples may accumulate before the
// cached p95 is recomputed. Hedge delays tolerate a slightly stale
// p95; resorting the ring on every fetch would not be free.
const latRecompute = 16

// estimator tracks one backend's observed fetch latency (EWMA + ring
// p95), throughput (EWMA of size/latency, the bandwidth behind an
// unconfigured link's ρ̂′, and its decaying peak, its routing weight)
// and failure share. Guarded by one short mutex: it is touched once per
// settled attempt, never on a per-candidate hot path, where routing
// reads peak and failure share alone.
type estimator struct {
	mu      sync.Mutex
	ewma    float64 // smoothed latency, seconds; 0 = no sample
	ring    [latRingSize]float64
	ringLen int // samples resident in ring (≤ latRingSize)
	ringPos int // next write position
	p95     float64
	stale   int     // samples since p95 was computed
	bw      float64 // smoothed size/latency; 0 = no sample
	// peak is the largest size/latency of late, decaying by ewmaWeight a
	// sample (float64 bits): a fetch that had the link to itself reads
	// its capacity, where bw also reads its load — and a link whose calls
	// hang, holding its bw while its busier peer's falls, would draw most
	// new fetches if routing weighed bw.
	peak atomic.Uint64
	// fails is the EWMA (ewmaWeight) of attempts failed, failedAt the
	// fabric time of the latest failure (float64 bits both).
	fails, failedAt atomic.Uint64
}

// ewmaWeight is the weight a new sample gets in the latency and
// throughput averages.
const ewmaWeight = 0.05

// observe folds one successful fetch — its wall latency in seconds and
// the size it delivered (at least 1: see settle) — and returns the
// smoothed size/latency, or 0 when a zero latency leaves no sample.
func (e *estimator) observe(latency, size float64) (bw float64) {
	if latency <= 0 {
		return 0
	}
	thr := size / latency
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ewma == 0 {
		e.ewma = latency
		e.bw = thr
	} else {
		e.ewma = (1-ewmaWeight)*e.ewma + ewmaWeight*latency
		e.bw = (1-ewmaWeight)*e.bw + ewmaWeight*thr
	}
	e.peak.Store(math.Float64bits(max(thr, (1-ewmaWeight)*e.peakBandwidth())))
	if p := math.Float64frombits(e.fails.Load()); p > 0 {
		e.fails.Store(math.Float64bits((1 - ewmaWeight) * p))
	}
	e.ring[e.ringPos] = latency
	e.ringPos = (e.ringPos + 1) % latRingSize
	if e.ringLen < latRingSize {
		e.ringLen++
	}
	e.stale++
	return e.bw
}

// fail folds one failed attempt, at fabric time now, into fails.
func (e *estimator) fail(now float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fails.Store(math.Float64bits((1-ewmaWeight)*math.Float64frombits(e.fails.Load()) + ewmaWeight))
	e.failedAt.Store(math.Float64bits(now))
}

// failShare returns the share of late attempts that failed, as of time
// now: 0 once the latest failure is a load window (window.DefaultSpan)
// old, so a link that has failed is tried again.
func (e *estimator) failShare(now float64) float64 {
	p := math.Float64frombits(e.fails.Load())
	if p == 0 || now-math.Float64frombits(e.failedAt.Load()) >= window.DefaultSpan {
		return 0
	}
	return p
}

// latency returns the smoothed fetch latency in seconds (0 before any
// sample).
func (e *estimator) latency() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ewma
}

// peakBandwidth returns the decaying peak of size/latency (0 before any
// sample).
func (e *estimator) peakBandwidth() float64 { return math.Float64frombits(e.peak.Load()) }

// p95Latency returns the 95th-percentile latency over the sample ring,
// recomputing lazily every latRecompute samples. 0 before any sample.
func (e *estimator) p95Latency() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ringLen == 0 {
		return 0
	}
	if e.p95 == 0 || e.stale >= latRecompute {
		ring := e.ring // a copy, on the stack: Stats calls this on every /stats
		buf := ring[:e.ringLen]
		slices.Sort(buf)
		e.p95 = buf[len(buf)*95/100] // < len(buf) for any len ≥ 1
		e.stale = 0
	}
	return e.p95
}
