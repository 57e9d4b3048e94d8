package prefetch

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/window"
)

// Controller maintains the online estimates a Threshold policy needs:
// the request rate λ, the mean item size s̄, the no-prefetch hit ratio
// h′ (via the paper's Section-4 tagged-cache estimator), hence
// ρ′ = (1−ĥ′)·λ̂·ŝ̄/b, and n̄(F), the prefetches per request, for the
// model-B correction. λ̂, ŝ̄ and n̄(F) are ratios of sums over one
// sliding window of time (package window), so the threshold follows a
// shift in load — what distinguishes the paper's rule from a static
// cutoff — and a record is a few atomic adds. Safe for concurrent use.
type Controller struct {
	bandwidth float64
	est       *cache.Estimator
	w         *window.Window
}

// The window fields a Controller sums: requests, those whose size is
// known, their sizes, and completed prefetches.
const fRequests, fSized, fBytes, fPrefetches = 0, 1, 2, 3

// NewController creates a controller for a link of the given bandwidth,
// whose rates cover span seconds; span 0 selects window.DefaultSpan.
func NewController(bandwidth, span float64) *Controller {
	if bandwidth <= 0 || math.IsNaN(bandwidth) {
		panic(fmt.Sprintf("prefetch: bandwidth %v must be positive", bandwidth))
	}
	return &Controller{bandwidth: bandwidth, est: cache.NewEstimator(), w: window.New(span)}
}

// Estimator exposes the tagged-cache h′ estimator so the cache layer can
// report hits, misses, prefetches and evictions to it.
func (c *Controller) Estimator() *cache.Estimator { return c.est }

// RecordRequest notes a user request at time now. Call once per request,
// as soon as the request arrives — before any fetch, so that λ̂ counts
// the request even when the origin later fails. size is the requested
// item's size if already known; pass 0 (skipped by the size estimator)
// when it is not, and report it via RecordSize once the fetch resolves.
func (c *Controller) RecordRequest(now, size float64) {
	c.w.At(now)
	c.w.Add(fRequests, 1)
	if size > 0 {
		c.w.Add(fSized, 1)
		c.w.Add(fBytes, size)
	}
}

// RecordSize counts one observed item size into ŝ̄ for a request whose
// size was unknown at arrival time (demand fetches learn the size only
// when the origin responds). Sizes <= 0 are ignored.
func (c *Controller) RecordSize(size float64) {
	if size > 0 {
		c.w.Add(fSized, 1)
		c.w.Add(fBytes, size)
	}
}

// RecordPrefetch notes that one item was prefetched as a consequence of
// a request.
func (c *Controller) RecordPrefetch() { c.w.Add(fPrefetches, 1) }

// State snapshots the current estimates for a Policy decision, read at
// the latest request's time: ĥ′ (model A), λ̂, ŝ̄ and n̄(F) — each 0
// until its denominator is not — and ρ̂′ = (1−ĥ′)·λ̂·ŝ̄/b, clamped to
// [0, 1]. nc is the caller's cache-occupancy estimate (model B only;
// pass 0 for model A).
func (c *Controller) State(nc float64) State {
	sums, span := c.w.Sum(c.w.Now())
	st := State{HPrime: c.est.EstimateA(), NC: nc}
	if span > 0 {
		st.Lambda = sums[fRequests] / span
	}
	if sums[fSized] > 0 {
		st.MeanSize = sums[fBytes] / sums[fSized]
	}
	if sums[fRequests] > 0 {
		st.NF = sums[fPrefetches] / sums[fRequests]
	}
	st.RhoPrime = min(max((1-st.HPrime)*st.Lambda*st.MeanSize/c.bandwidth, 0), 1)
	return st
}

// StateWith returns the State a policy decides on around a ρ̂′ the
// caller measured (the fetch fabric's) with the client cache's ĥ′ and
// nc, the caller's occupancy estimate, as in State. The rates behind
// the controller's own ρ̂′, and n̄(F), which no policy reads, are unset.
func (c *Controller) StateWith(rhoPrime, nc float64) State {
	return State{RhoPrime: rhoPrime, HPrime: c.est.EstimateA(), NC: nc}
}
