package fetch

import (
	"slices"
	"sync"
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
// p95) and throughput (EWMA of size/latency — the online bandwidth
// estimate for links with no configured capacity). Guarded by one
// short mutex: it is touched once per completed fetch, never on a
// per-candidate hot path.
type estimator struct {
	mu      sync.Mutex
	ewma    float64 // smoothed latency, seconds; 0 = no sample
	ring    [latRingSize]float64
	ringLen int // samples resident in ring (≤ latRingSize)
	ringPos int // next write position
	p95     float64
	stale   int     // samples since p95 was computed
	bw      float64 // smoothed size/latency; 0 = no sample
}

// ewmaWeight is the weight a new sample gets in the latency and
// throughput averages.
const ewmaWeight = 0.05

// observe folds one successful fetch: its wall latency in seconds and
// the size it delivered.
func (e *estimator) observe(latency, size float64) {
	if latency <= 0 {
		return
	}
	e.mu.Lock()
	if e.ewma == 0 {
		e.ewma = latency
	} else {
		e.ewma = (1-ewmaWeight)*e.ewma + ewmaWeight*latency
	}
	e.ring[e.ringPos] = latency
	e.ringPos = (e.ringPos + 1) % latRingSize
	if e.ringLen < latRingSize {
		e.ringLen++
	}
	e.stale++
	if size > 0 {
		if thr := size / latency; thr > 0 {
			if e.bw == 0 {
				e.bw = thr
			} else {
				e.bw = (1-ewmaWeight)*e.bw + ewmaWeight*thr
			}
		}
	}
	e.mu.Unlock()
}

// latency returns the smoothed fetch latency in seconds (0 before any
// sample).
func (e *estimator) latency() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ewma
}

// bandwidth returns the smoothed size/latency throughput estimate (0
// before any sized sample).
func (e *estimator) bandwidth() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bw
}

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
		idx := (len(buf) * 95) / 100
		if idx >= len(buf) {
			idx = len(buf) - 1
		}
		e.p95 = buf[idx]
		e.stale = 0
	}
	return e.p95
}
