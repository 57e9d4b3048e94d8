package rng

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a continuous, non-negative random variate generator. The
// simulator draws inter-arrival times and item sizes from Dists; the
// queueing analysis only needs their mean, which Mean reports exactly.
type Dist interface {
	// Sample draws one variate using the given source.
	Sample(r *Source) float64
	// Mean returns the exact expectation of the distribution.
	Mean() float64
	// String describes the distribution and its parameters.
	String() string
}

// Deterministic is a degenerate distribution that always returns Value.
// Used for fixed item sizes, where the paper's s̄ is exact.
type Deterministic struct {
	Value float64
}

// Sample implements Dist.
func (d Deterministic) Sample(*Source) float64 { return d.Value }

// Mean implements Dist.
func (d Deterministic) Mean() float64 { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("det(%g)", d.Value) }

// Exponential is the exponential distribution with the given rate λ
// (mean 1/λ). Poisson arrival processes use exponential inter-arrivals.
type Exponential struct {
	Rate float64
}

// Sample implements Dist.
func (d Exponential) Sample(r *Source) float64 {
	// -log(1-U)/λ; 1-U avoids log(0) since Float64 ∈ [0,1).
	return -math.Log(1-r.Float64()) / d.Rate
}

// Mean implements Dist.
func (d Exponential) Mean() float64 { return 1 / d.Rate }

func (d Exponential) String() string { return fmt.Sprintf("exp(rate=%g)", d.Rate) }

// Uniform is the continuous uniform distribution on [Low, High).
type Uniform struct {
	Low, High float64
}

// Sample implements Dist.
func (d Uniform) Sample(r *Source) float64 {
	return d.Low + (d.High-d.Low)*r.Float64()
}

// Mean implements Dist.
func (d Uniform) Mean() float64 { return (d.Low + d.High) / 2 }

func (d Uniform) String() string { return fmt.Sprintf("uniform[%g,%g)", d.Low, d.High) }

// Pareto is the (unbounded) Pareto distribution with scale Xm > 0 and
// shape Alpha. The mean is finite only for Alpha > 1. Heavy-tailed item
// sizes are the classic stress test for the processor-sharing server's
// insensitivity property (experiment T8).
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Dist.
func (d Pareto) Sample(r *Source) float64 {
	// Inverse-CDF: Xm / U^(1/α), with U ∈ (0,1].
	u := 1 - r.Float64()
	return d.Xm / math.Pow(u, 1/d.Alpha)
}

// Mean implements Dist. It returns +Inf when Alpha <= 1.
func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Alpha * d.Xm / (d.Alpha - 1)
}

func (d Pareto) String() string { return fmt.Sprintf("pareto(xm=%g,α=%g)", d.Xm, d.Alpha) }

// NewParetoMean returns a Pareto distribution with the given mean and
// shape Alpha (> 1). It panics if Alpha <= 1, since then no finite mean
// exists.
func NewParetoMean(mean, alpha float64) Pareto {
	if alpha <= 1 {
		panic("rng: Pareto mean undefined for alpha <= 1")
	}
	return Pareto{Xm: mean * (alpha - 1) / alpha, Alpha: alpha}
}

// BoundedPareto is a Pareto distribution truncated to [L, H]. Bounded
// tails keep single simulation runs from being dominated by one sample
// while staying recognisably heavy-tailed.
type BoundedPareto struct {
	L, H  float64
	Alpha float64
}

// Sample implements Dist.
func (d BoundedPareto) Sample(r *Source) float64 {
	u := r.Float64()
	la := math.Pow(d.L, d.Alpha)
	ha := math.Pow(d.H, d.Alpha)
	// Inverse CDF of the bounded Pareto.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/d.Alpha)
	return x
}

// Mean implements Dist.
func (d BoundedPareto) Mean() float64 {
	a := d.Alpha
	if a == 1 {
		return d.L * d.H / (d.H - d.L) * math.Log(d.H/d.L)
	}
	la := math.Pow(d.L, a)
	return la / (1 - math.Pow(d.L/d.H, a)) * a / (a - 1) *
		(1/math.Pow(d.L, a-1) - 1/math.Pow(d.H, a-1))
}

func (d BoundedPareto) String() string {
	return fmt.Sprintf("bpareto[%g,%g](α=%g)", d.L, d.H, d.Alpha)
}

// Zipf draws integers in [0, N) with probability proportional to
// 1/(rank+1)^S. Web-object popularity is famously Zipf-like, which is
// what makes caching (and hence the paper's h′) effective.
type Zipf struct {
	n   int
	s   float64
	cdf []float64 // cumulative probabilities, cdf[n-1] == 1
}

// NewZipf builds a Zipf sampler over n items with exponent s >= 0
// (s == 0 is the uniform distribution). It panics if n <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{n: n, s: s, cdf: cdf}
}

// N returns the population size.
func (z *Zipf) N() int { return z.n }

// S returns the skew exponent.
func (z *Zipf) S() float64 { return z.s }

// Prob returns the probability of rank i (0-based).
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= z.n {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Sample draws a rank in [0, N).
func (z *Zipf) Sample(r *Source) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

func (z *Zipf) String() string { return fmt.Sprintf("zipf(n=%d,s=%g)", z.n, z.s) }

// Bernoulli returns true with probability p.
func Bernoulli(r *Source, p float64) bool { return r.Float64() < p }

// Empirical is a discrete distribution over arbitrary weights.
type Empirical struct {
	cdf []float64
}

// NewEmpirical builds a sampler proportional to weights. It panics if
// weights is empty, contains a negative value, or sums to zero.
func NewEmpirical(weights []float64) *Empirical {
	if len(weights) == 0 {
		panic("rng: empirical distribution needs at least one weight")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: negative or NaN weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("rng: empirical weights sum to zero")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[len(cdf)-1] = 1
	return &Empirical{cdf: cdf}
}

// Sample draws an index in [0, len(weights)).
func (e *Empirical) Sample(r *Source) int {
	return sort.SearchFloat64s(e.cdf, r.Float64())
}

// Prob returns the normalised probability of index i.
func (e *Empirical) Prob(i int) float64 {
	if i < 0 || i >= len(e.cdf) {
		return 0
	}
	if i == 0 {
		return e.cdf[0]
	}
	return e.cdf[i] - e.cdf[i-1]
}
