package prefetch

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/window"
)

// Link tracks the online utilisation of one backend link, so a fetch
// fabric can feed its links' bandwidth-weighted ρ̂′ to the rule. It
// counts two streams over one sliding window (package window): demand
// (miss fetches — the link's no-prefetch traffic, giving ρ̂′; the cache
// has already absorbed the hits, so no (1−h′) correction) and total
// (demand plus speculative, giving ρ̂, the link's whole load), each as
// dispatches per second times their mean size, over b. A dispatch
// counts at its time, its size — known when the fetch completes — in
// the newest bucket. Safe for concurrent use.
type Link struct {
	bw atomic.Uint64 // float64 bits: configured or estimated bandwidth
	w  *window.Window
}

// The window fields a Link sums: per stream, its dispatches, the
// completed fetches with a size, and those sizes.
const (
	demandStream, totalStream             = 0, 3
	streamCalls, streamSized, streamBytes = 0, 1, 2
)

// NewLink creates a link estimator. bandwidth is the link capacity in
// size units per second; pass 0 when unknown — utilisation then reads
// 0 until SetBandwidth supplies an online estimate. Its rates cover
// span seconds; span 0 selects window.DefaultSpan.
func NewLink(bandwidth, span float64) *Link {
	if bandwidth < 0 || math.IsNaN(bandwidth) {
		panic(fmt.Sprintf("prefetch: link bandwidth %v must be non-negative", bandwidth))
	}
	l := &Link{w: window.New(span)}
	l.bw.Store(math.Float64bits(bandwidth))
	return l
}

// SetBandwidth replaces the link's bandwidth estimate (size units per
// second). Non-positive and non-finite values are ignored.
func (l *Link) SetBandwidth(b float64) {
	if b > 0 && !math.IsInf(b, 0) && !math.IsNaN(b) {
		l.bw.Store(math.Float64bits(b))
	}
}

// Bandwidth returns the current bandwidth (configured or estimated);
// 0 means no estimate yet.
func (l *Link) Bandwidth() float64 { return math.Float64frombits(l.bw.Load()) }

// RecordDemand notes one demand (miss) fetch dispatched at time now.
func (l *Link) RecordDemand(now float64) { l.dispatched(now, true) }

// RecordSpeculative notes one speculative fetch dispatched at time now:
// it counts toward ρ̂ only, ρ̂′ being by definition the utilisation
// prefetching would leave behind.
func (l *Link) RecordSpeculative(now float64) { l.dispatched(now, false) }

// RecordDemandSize counts the size of a completed demand fetch.
func (l *Link) RecordDemandSize(size float64) { l.sized(size, true) }

// RecordSpeculativeSize counts the size of a completed speculative
// fetch.
func (l *Link) RecordSpeculativeSize(size float64) { l.sized(size, false) }

func (l *Link) dispatched(now float64, demand bool) {
	l.w.At(now)
	l.w.Add(totalStream+streamCalls, 1)
	if demand {
		l.w.Add(demandStream+streamCalls, 1)
	}
}

func (l *Link) sized(size float64, demand bool) {
	if size <= 0 {
		return
	}
	l.w.Add(totalStream+streamSized, 1)
	l.w.Add(totalStream+streamBytes, size)
	if demand {
		l.w.Add(demandStream+streamSized, 1)
		l.w.Add(demandStream+streamBytes, size)
	}
}

// mean returns a stream's mean fetch size over the window, 0 until a
// size is known.
func mean(sums *[window.Fields]float64, stream int) float64 {
	if sized := sums[stream+streamSized]; sized > 0 {
		return sums[stream+streamBytes] / sized
	}
	return 0
}

// RhoPrime returns the link's estimated demand-only utilisation ρ̂′ at
// time now, clamped to [0, 1]. 0 when the bandwidth is still unknown.
func (l *Link) RhoPrime(now float64) float64 { return l.rho(now, demandStream) }

// Rho returns the link's estimated total utilisation ρ̂ (demand plus
// speculative traffic) at time now, clamped to [0, 1].
func (l *Link) Rho(now float64) float64 { return l.rho(now, totalStream) }

// rho returns a stream's dispatches per second over the window times
// their mean size, over b.
func (l *Link) rho(now float64, stream int) float64 {
	b := l.Bandwidth()
	sums, span := l.w.Sum(now)
	if b <= 0 || span <= 0 {
		return 0
	}
	return min(max(sums[stream+streamCalls]/span*mean(&sums, stream)/b, 0), 1)
}
