package analytic

import (
	"fmt"
	"math"
	"sort"
)

// Class is a group of prefetch candidates sharing one access
// probability: prefetch NF items per request, each with probability P.
// The paper analyses a single class "for simplicity"; the mixed
// extension below handles heterogeneous candidate sets, which is what a
// real predictor produces.
type Class struct {
	// NF is the average number of items of this class prefetched per
	// request.
	NF float64
	// P is the access probability of each item in the class.
	P float64
}

// EvaluateMixed computes the steady state when prefetching a mixture of
// classes. The derivation follows the paper's exactly, with the scalar
// n̄(F)·p replaced by the sum over classes:
//
//	h   = h′ + Σᵢ n̄(F)ᵢ·(pᵢ − d)
//	ρ   = (1 − h + Σᵢ n̄(F)ᵢ)·λ·s̄/b
//	t̄  = (1 − h)·s̄/(b(1−ρ)),  G = t̄′ − t̄,  C per eq. 27.
//
// With a single class it reduces to Evaluate (tested property). The
// consistency bound (eq. 6) applies jointly: Σ n̄(F)ᵢ·pᵢ ≤ f′.
func EvaluateMixed(m Model, par Params, classes []Class) (Eval, error) {
	var e Eval
	if err := par.Validate(); err != nil {
		return e, err
	}
	d, err := m.Displacement(par)
	if err != nil {
		return e, err
	}
	var nfTotal, gain float64
	for i, c := range classes {
		if c.NF < 0 || math.IsNaN(c.NF) {
			return e, fmt.Errorf("analytic: class %d n̄(F) = %v must be non-negative", i, c.NF)
		}
		if c.NF == 0 {
			continue
		}
		if c.P <= 0 || c.P > 1 || math.IsNaN(c.P) {
			return e, fmt.Errorf("analytic: class %d probability %v must be in (0,1]", i, c.P)
		}
		nfTotal += c.NF
		gain += c.NF * c.P
	}
	if gain > par.FPrime()+1e-12 {
		return e, fmt.Errorf("analytic: Σ n̄(F)ᵢ·pᵢ = %v exceeds f′ = %v (eq. 6 jointly violated)",
			gain, par.FPrime())
	}

	e.Par = par
	e.NF = nfTotal
	if nfTotal > 0 {
		e.P = gain / nfTotal // effective mean probability
	}
	e.D = d
	e.H = par.HPrime + gain - nfTotal*d
	if e.H < 0 || e.H > 1 {
		return e, fmt.Errorf("analytic: mixed hit ratio h = %v out of [0,1]", e.H)
	}
	e.Rho = (1 - e.H + nfTotal) * par.Lambda * par.SBar / par.B
	if e.Rho >= 1 {
		return e, ErrOverload
	}
	e.RBar = par.SBar / (par.B * (1 - e.Rho))
	e.TBar = (1 - e.H) * e.RBar
	tPrime, err := par.AccessTimeNoPrefetch()
	if err != nil {
		return e, err
	}
	e.TBarPrime = tPrime
	e.G = tPrime - e.TBar
	c, err := ExcessCost(par.Lambda, e.Rho, par.RhoPrime())
	if err != nil {
		return e, err
	}
	e.C = c
	return e, nil
}

// SelectClasses applies the paper's rule verbatim to a heterogeneous
// candidate set: it returns the subset of classes whose probability
// strictly exceeds p_th = ρ′ + d (eqs. 13, 21).
//
// Reproduction note: the paper proves this rule optimal in its
// single-probability setting. For *mixed* probabilities it is safe but
// conservative: p_th is the marginal condition at the no-prefetch
// operating point, and prefetching high-p classes lowers the demand
// load, which lowers the marginal threshold below ρ′ — classes slightly
// under p_th can then become worth adding. SelectClassesGreedy
// implements that corrected fixed-point rule; every class SelectClasses
// picks, SelectClassesGreedy also picks (the local threshold only
// falls), so the paper's rule never prefetches a harmful item — it may
// just stop early. See table T10 (`go run ./cmd/prefetchbench -run T10`).
func SelectClasses(m Model, par Params, classes []Class) ([]Class, error) {
	pth, err := Threshold(m, par)
	if err != nil {
		return nil, err
	}
	var out []Class
	for _, c := range classes {
		if c.P > pth && c.NF > 0 {
			out = append(out, c)
		}
	}
	return out, nil
}

// LocalThreshold returns the marginal profitability threshold at an
// arbitrary operating point (hit ratio h, prefetch volume nF):
//
//	θ(h, n̄(F)) = d + (1−h)·λ·s̄ / (b − n̄(F)·λ·s̄)
//
// Prefetching one more item with probability p lowers the mean access
// time iff p > θ. At the no-prefetch point (h = h′, n̄(F) = 0) this is
// exactly the paper's p_th = ρ′ + d; as profitable classes are added, h
// rises and θ falls.
func LocalThreshold(m Model, par Params, h, nF float64) (float64, error) {
	if err := par.Validate(); err != nil {
		return 0, err
	}
	d, err := m.Displacement(par)
	if err != nil {
		return 0, err
	}
	if h < 0 || h > 1 || math.IsNaN(h) {
		return 0, fmt.Errorf("analytic: hit ratio %v must be in [0,1]", h)
	}
	den := par.B - nF*par.Lambda*par.SBar
	if den <= 0 {
		return 0, ErrOverload
	}
	return d + (1-h)*par.Lambda*par.SBar/den, nil
}

// SelectClassesGreedy implements the corrected mixed-probability rule:
// consider classes in descending probability order and admit each class
// whose probability exceeds the *current* local threshold, updating the
// operating point (h, n̄(F)) after each admission. Admitting an
// above-threshold class strictly lowers the local threshold, so a
// descending scan is exact; classes that would violate the joint
// consistency bound (eq. 6) or saturate the link are skipped.
// TestQuickMixedGreedyOptimal verifies optimality by exhaustion.
func SelectClassesGreedy(m Model, par Params, classes []Class) ([]Class, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	d, err := m.Displacement(par)
	if err != nil {
		return nil, err
	}
	ordered := make([]Class, 0, len(classes))
	for _, c := range classes {
		if c.NF > 0 {
			if c.P <= 0 || c.P > 1 || math.IsNaN(c.P) {
				return nil, fmt.Errorf("analytic: probability %v must be in (0,1]", c.P)
			}
			ordered = append(ordered, c)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].P > ordered[j].P })

	var out []Class
	h := par.HPrime
	nF := 0.0
	gain := 0.0
	for _, c := range ordered {
		theta, err := LocalThreshold(m, par, h, nF)
		if err != nil {
			break // saturated: no further prefetching possible
		}
		if c.P <= theta {
			break // descending order: no later class can qualify either
		}
		// Feasibility of admitting the whole class.
		newGain := gain + c.NF*c.P
		newH := h + c.NF*(c.P-d)
		newNF := nF + c.NF
		if newGain > par.FPrime()+1e-12 || newH > 1 {
			continue // class too large for the consistency bound; try smaller ones
		}
		rho := (1 - newH + newNF) * par.Lambda * par.SBar / par.B
		if rho >= 1 {
			continue
		}
		out = append(out, c)
		h, nF, gain = newH, newNF, newGain
	}
	return out, nil
}

// MarginalGain returns ∂G/∂n̄(F) at n̄(F)=0 for a candidate class of
// probability p: the first-order benefit of starting to prefetch such
// items. Its sign is positive exactly when p > p_th, which is another
// route to the paper's threshold (eq. 13/21 by differentiation).
func MarginalGain(m Model, par Params, p float64) (float64, error) {
	if err := par.Validate(); err != nil {
		return 0, err
	}
	if p <= 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("analytic: probability %v must be in (0,1]", p)
	}
	d, err := m.Displacement(par)
	if err != nil {
		return 0, err
	}
	// From eq. 11/19: G = nF·s̄·(p·b − f′λs̄ − d·b)/(den1·den2(nF));
	// at nF=0, den2 = den1, so dG/dnF = s̄(pb − f′λs̄ − db)/den1².
	f := par.FPrime()
	ls := par.Lambda * par.SBar
	den1 := par.B - f*ls
	if den1 <= 0 {
		return 0, ErrOverload
	}
	return par.SBar * (p*par.B - f*ls - d*par.B) / (den1 * den1), nil
}
