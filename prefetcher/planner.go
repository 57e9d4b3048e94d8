package prefetcher

import "repro/internal/analytic"

// PlanParams are the known operating-point parameters for offline
// capacity planning (the engine estimates these online instead).
type PlanParams struct {
	// Lambda is the aggregate request rate λ (requests/s).
	Lambda float64
	// Bandwidth is the shared link bandwidth b (size units/s).
	Bandwidth float64
	// MeanSize is the mean item size s̄.
	MeanSize float64
	// HPrime is the cache hit ratio h′ without prefetching.
	HPrime float64
	// NC is the steady cache occupancy n̄(C) in items (model B only;
	// leave 0 for model A).
	NC float64
}

func (p PlanParams) analytic() analytic.Params {
	return analytic.Params{
		Lambda: p.Lambda,
		B:      p.Bandwidth,
		SBar:   p.MeanSize,
		HPrime: p.HPrime,
		NC:     p.NC,
	}
}

// RhoPrime returns the no-prefetch utilisation ρ′ = (1−h′)λs̄/b.
func (p PlanParams) RhoPrime() float64 { return p.analytic().RhoPrime() }

// Eval is the full steady-state picture for one prefetching operating
// point (equations 5–27 of the paper).
type Eval struct {
	// H is the hit ratio with prefetching.
	H float64
	// Rho is the link utilisation with prefetching.
	Rho float64
	// RBar is the mean retrieval time with prefetching.
	RBar float64
	// TBar is the mean access time with prefetching; TBarPrime the
	// no-prefetch access time t̄′.
	TBar, TBarPrime float64
	// G is the access improvement t̄′ − t̄ (positive = prefetching
	// pays).
	G float64
	// C is the excess retrieval cost the prefetch traffic imposes on
	// every request (eq. 27).
	C float64
}

func fromAnalytic(e analytic.Eval) Eval {
	return Eval{H: e.H, Rho: e.Rho, RBar: e.RBar, TBar: e.TBar,
		TBarPrime: e.TBarPrime, G: e.G, C: e.C}
}

// SizedClass describes one heterogeneous-size prefetch class for
// EvaluateSized: nF items of probability Prob and size Size per
// request.
type SizedClass struct {
	NF, Prob, Size float64
}

// Planner answers capacity-planning questions offline from known
// parameters: what is the threshold, what gain does a policy buy, what
// does it cost in network load.
type Planner struct {
	model Model
	par   analytic.Params
}

// NewPlanner validates the parameters and returns a Planner for the
// given interaction model.
func NewPlanner(m Model, par PlanParams) (*Planner, error) {
	ap := par.analytic()
	if err := ap.Validate(); err != nil {
		return nil, err
	}
	// Surface model/parameter mismatches (e.g. model B without n̄(C))
	// at construction instead of first use.
	if _, err := m.analytic().Displacement(ap); err != nil {
		return nil, err
	}
	return &Planner{model: m, par: ap}, nil
}

// Threshold returns p_th: prefetch exactly the items whose access
// probability exceeds this value (eq. 13 / 21).
func (p *Planner) Threshold() (float64, error) {
	return analytic.Threshold(p.model.analytic(), p.par)
}

// ShouldPrefetch reports whether an item with the given access
// probability is worth prefetching — the paper's decision rule.
func (p *Planner) ShouldPrefetch(prob float64) (bool, error) {
	pth, err := p.Threshold()
	if err != nil {
		return false, err
	}
	return prob > pth, nil
}

// Evaluate returns the steady state for prefetching nF items of
// probability prob per request.
func (p *Planner) Evaluate(nF, prob float64) (Eval, error) {
	e, err := analytic.Evaluate(p.model.analytic(), p.par, nF, prob)
	if err != nil {
		return Eval{}, err
	}
	return fromAnalytic(e), nil
}

// AccessTimeNoPrefetch returns the demand-fetch baseline access time
// t̄′ (eq. 5).
func (p *Planner) AccessTimeNoPrefetch() (float64, error) {
	return p.par.AccessTimeNoPrefetch()
}

// MaxPrefetchable returns max(np) = f′/p (eq. 6), the consistency
// bound on how many items can carry probability ≥ prob.
func (p *Planner) MaxPrefetchable(prob float64) float64 {
	return p.par.MaxPrefetchable(prob)
}

// ThresholdSized returns the size-aware threshold for items of the
// given size (the heterogeneous-size extension; under model A the
// threshold is size-independent).
func (p *Planner) ThresholdSized(size float64) (float64, error) {
	return analytic.ThresholdSized(p.model.analytic(), p.par, size)
}

// EvaluateSized returns the steady state when prefetching a mix of
// size classes.
func (p *Planner) EvaluateSized(classes []SizedClass) (Eval, error) {
	cs := make([]analytic.SizedClass, len(classes))
	for i, c := range classes {
		cs[i] = analytic.SizedClass{NF: c.NF, P: c.Prob, Size: c.Size}
	}
	e, err := analytic.EvaluateSized(p.model.analytic(), p.par, cs)
	if err != nil {
		return Eval{}, err
	}
	return fromAnalytic(e), nil
}

// ExcessCost returns C (eq. 27): the extra retrieval time per request
// induced by raising utilisation from rhoPrime to rho at request rate
// lambda — the paper's load-impedance result, usable standalone for
// "what does this transfer cost right now" questions.
func ExcessCost(lambda, rho, rhoPrime float64) (float64, error) {
	return analytic.ExcessCost(lambda, rho, rhoPrime)
}
