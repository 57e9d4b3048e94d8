package prefetcher

import (
	"repro/internal/analytic"
	"repro/internal/prefetch"
)

// Model selects the prefetch–cache interaction model from the paper,
// which determines the displacement term in the threshold.
type Model struct {
	m analytic.Model
}

// ModelA is interaction model A: prefetched items evict only zero-value
// occupants, so p_th = ρ′ (eq. 13).
func ModelA() Model { return Model{analytic.ModelA{}} }

// ModelB is interaction model B: each prefetched item displaces an
// average-value occupant, so p_th = ρ′ + h′/n̄(C) (eq. 21).
func ModelB() Model { return Model{analytic.ModelB{}} }

// Name identifies the model in reports.
func (m Model) Name() string {
	if m.m == nil {
		return "A"
	}
	return m.m.Name()
}

func (m Model) analytic() analytic.Model {
	if m.m == nil {
		return analytic.ModelA{}
	}
	return m.m
}

// Policy decides which predicted candidates are worth prefetching. The
// zero value is invalid; use one of the constructors below.
type Policy struct {
	p prefetch.Policy
	// adaptive marks policies whose cutoff depends on the engine's live
	// load estimates and therefore require a configured bandwidth.
	adaptive bool
	model    Model
}

// AdaptiveThreshold is the paper's rule: prefetch exclusively the
// candidates whose access probability exceeds p_th, recomputed from the
// live estimates ρ̂′, ĥ′ and n̄(C) on every decision.
func AdaptiveThreshold(m Model) Policy {
	return Policy{
		p:        prefetch.Threshold{Model: m.analytic()},
		adaptive: true,
		model:    m,
	}
}

// StaticThreshold prefetches every candidate above a fixed probability
// cutoff theta — the load-blind heuristic the paper argues against.
func StaticThreshold(theta float64) Policy {
	return Policy{p: prefetch.Static{Theta: theta}}
}

// TopK prefetches the k most probable candidates regardless of their
// absolute probability.
func TopK(k int) Policy { return Policy{p: prefetch.TopK{K: k}} }

// NoPrefetch never prefetches — the demand-fetch baseline. The engine
// still runs its online estimators, so Stats and Threshold keep
// reporting what the paper's rule *would* decide.
func NoPrefetch() Policy { return Policy{p: prefetch.None{}} }

// Name identifies the policy in reports.
func (p Policy) Name() string {
	if p.p == nil {
		return "unset"
	}
	return p.p.Name()
}

func (p Policy) valid() bool { return p.p != nil }
