package prefetch

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/cache"
)

// ewma is a lock-free exponentially-weighted moving average: the current
// value is stored as float64 bits in an atomic word, NaN meaning "no
// observation yet", and each fold is a compare-and-swap loop. Concurrent
// folds may apply in either order, but every sample is folded exactly
// once, which is all the estimators need.
type ewma struct {
	bits atomic.Uint64
}

var unsetBits = math.Float64bits(math.NaN())

func (e *ewma) init() { e.bits.Store(unsetBits) }

// value returns the current average, or 0 before any observation.
func (e *ewma) value() float64 {
	v := math.Float64frombits(e.bits.Load())
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// fold mixes one sample in with weight alpha; the first sample seeds the
// average directly.
func (e *ewma) fold(sample, alpha float64) {
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		next := sample
		if !math.IsNaN(cur) {
			next = (1-alpha)*cur + alpha*sample
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Controller maintains the online estimates a Threshold policy needs:
// the request rate λ, the mean item size s̄, the no-prefetch hit ratio
// h′ (via the paper's Section-4 tagged-cache estimator), and hence
// ρ′ = (1−ĥ′)·λ̂·ŝ̄/b. It also tracks n̄(F), the recent prefetches per
// request, for the model-B correction.
//
// Rate, size and n̄(F) estimates use exponentially-weighted moving
// averages so the threshold adapts when load shifts — the property that
// distinguishes the paper's rule from a static cutoff.
//
// Controller is safe for concurrent use and, unlike the earlier
// mutex-based version, never serialises its callers: every estimate
// lives in an atomic word, so the sharded engine's hot paths can record
// requests and prefetch completions from many shards without contending
// on a controller lock, while Lambda/State/Stats readers still observe
// globally consistent aggregates. The engine reports accesses to the
// embedded Estimator through CountAccess alone.
type Controller struct {
	bandwidth float64
	alpha     float64 // EWMA weight for new observations

	est *cache.Estimator

	lastArrival atomic.Uint64 // float64 bits of the last arrival time; NaN = none
	interEWMA   ewma          // smoothed inter-arrival time
	sizeEWMA    ewma          // smoothed item size
	nfEWMA      ewma          // smoothed prefetches per request

	// nfPending counts prefetches recorded since the last request; each
	// arrival folds it into nfEWMA as one sample.
	nfPending atomic.Int64
}

// NewController creates a controller for a link of the given bandwidth.
// alpha is the EWMA weight in (0,1]; 0 selects the default 0.05 (slow,
// stable adaptation).
func NewController(bandwidth, alpha float64) *Controller {
	if bandwidth <= 0 || math.IsNaN(bandwidth) {
		panic(fmt.Sprintf("prefetch: bandwidth %v must be positive", bandwidth))
	}
	if alpha == 0 {
		alpha = 0.05
	}
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("prefetch: EWMA weight %v must be in (0,1]", alpha))
	}
	c := &Controller{
		bandwidth: bandwidth,
		alpha:     alpha,
		est:       cache.NewEstimator(),
	}
	c.lastArrival.Store(unsetBits)
	c.interEWMA.init()
	c.sizeEWMA.init()
	c.nfEWMA.init()
	return c
}

// Estimator exposes the tagged-cache h′ estimator so the cache layer can
// report hits, misses, prefetches and evictions to it.
func (c *Controller) Estimator() *cache.Estimator { return c.est }

// Bandwidth returns the configured link bandwidth b.
func (c *Controller) Bandwidth() float64 { return c.bandwidth }

// RecordRequest notes a user request at time now. Call once per request,
// as soon as the request arrives — before any fetch, so that λ̂ counts
// the request even when the origin later fails. size is the requested
// item's size if already known; pass 0 (skipped by the size estimator)
// when it is not, and report it via RecordSize once the fetch resolves.
func (c *Controller) RecordRequest(now, size float64) {
	prev := math.Float64frombits(c.lastArrival.Swap(math.Float64bits(now)))
	if !math.IsNaN(prev) {
		// Concurrent arrivals can swap out of order; a negative gap
		// carries no rate information, so skip it.
		if inter := now - prev; inter >= 0 {
			c.interEWMA.fold(inter, c.alpha)
		}
	}
	if size > 0 {
		c.sizeEWMA.fold(size, c.alpha)
	}
	c.nfEWMA.fold(float64(c.nfPending.Swap(0)), c.alpha)
}

// RecordSize folds one observed item size into ŝ̄ for a request whose
// size was unknown at arrival time (demand fetches learn the size only
// when the origin responds). Sizes <= 0 are ignored.
func (c *Controller) RecordSize(size float64) {
	if size > 0 {
		c.sizeEWMA.fold(size, c.alpha)
	}
}

// RecordPrefetch notes that one item was prefetched as a consequence of
// a request.
func (c *Controller) RecordPrefetch() {
	c.nfPending.Add(1)
}

// Lambda returns the estimated request rate λ̂ (0 until two requests
// have been seen).
func (c *Controller) Lambda() float64 {
	inter := c.interEWMA.value()
	if inter <= 0 {
		return 0
	}
	return 1 / inter
}

// MeanSize returns the estimated mean item size ŝ̄ (0 until a sized
// request has been seen).
func (c *Controller) MeanSize() float64 { return c.sizeEWMA.value() }

// HPrime returns the Section-4 estimate ĥ′ under model A.
func (c *Controller) HPrime() float64 { return c.est.EstimateA() }

// NF returns the *recent* average number of prefetched items per user
// request n̄(F): an EWMA, folded at each arrival with the same alpha as
// λ̂ and ŝ̄, of the prefetches recorded since the previous arrival. It
// adapts when prefetch volume shifts, unlike the lifetime ratio
// prefetches/requests.
func (c *Controller) NF() float64 { return c.nfEWMA.value() }

// RhoPrime returns the estimated no-prefetch utilisation
// ρ̂′ = (1−ĥ′)·λ̂·ŝ̄/b, clamped to [0, 1].
func (c *Controller) RhoPrime() float64 {
	return c.rhoPrime(c.est.EstimateA())
}

func (c *Controller) rhoPrime(hPrime float64) float64 {
	rho := (1 - hPrime) * c.Lambda() * c.MeanSize() / c.bandwidth
	if rho < 0 {
		return 0
	}
	if rho > 1 {
		return 1
	}
	return rho
}

// State snapshots the current estimates for a Policy decision; nc is the
// caller's cache-occupancy estimate (model B only; pass 0 for model A).
func (c *Controller) State(nc float64) State {
	hp := c.est.EstimateA()
	return State{
		RhoPrime: c.rhoPrime(hp),
		HPrime:   hp,
		NC:       nc,
		NF:       c.NF(),
	}
}
