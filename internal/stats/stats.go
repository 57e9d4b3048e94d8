// Package stats provides the summary statistics and reporting utilities
// used by the simulator and the experiment harness: numerically stable
// running moments (Welford), confidence intervals, batch-means analysis
// for steady-state simulation output, time-weighted averages for
// utilisation-style quantities, exact quantiles, and plain-text / CSV table
// rendering for the experiment tables (internal/experiments, printed by
// `prefetchbench -run`).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean and variance with Welford's
// single-pass algorithm, which is stable for long simulation runs where
// naive sum-of-squares would lose precision.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Sum returns the total of all observations.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// Var returns the unbiased sample variance (0 for fewer than two
// observations).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Var()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// Min returns the smallest observation (0 with no observations).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 with no observations).
func (r *Running) Max() float64 { return r.max }

// CI95 returns the half-width of an approximate 95% confidence interval
// for the mean, using the normal critical value 1.96. For the sample
// sizes the harness uses (thousands), the t-correction is negligible.
func (r *Running) CI95() float64 { return 1.96 * r.StdErr() }

// String summarises the accumulator.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// TimeWeighted accumulates the time average of a piecewise-constant
// signal, e.g. the number of jobs in a queue. Call Observe(t, v) each
// time the signal changes to value v at time t.
type TimeWeighted struct {
	lastT   float64
	lastV   float64
	area    float64
	started bool
	startT  float64
}

// Observe records that the signal takes value v from time t onward.
// Times must be non-decreasing.
func (w *TimeWeighted) Observe(t, v float64) {
	if !w.started {
		w.started = true
		w.startT = t
	} else {
		if t < w.lastT {
			panic("stats: TimeWeighted times must be non-decreasing")
		}
		w.area += w.lastV * (t - w.lastT)
	}
	w.lastT = t
	w.lastV = v
}

// Mean returns the time average of the signal from the first observation
// up to time end.
func (w *TimeWeighted) Mean(end float64) float64 {
	if !w.started || end <= w.startT {
		return 0
	}
	area := w.area + w.lastV*(end-w.lastT)
	return area / (end - w.startT)
}

// BatchMeans estimates a steady-state mean and its confidence interval
// from a correlated output sequence by averaging fixed-size batches; the
// batch averages are approximately independent for large batches. This
// is the standard method for M/G/1 simulation output analysis.
type BatchMeans struct {
	batchSize int
	current   Running
	batches   Running
}

// NewBatchMeans creates an estimator with the given batch size
// (panics unless positive).
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: batch size must be positive")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add incorporates one observation.
func (b *BatchMeans) Add(x float64) {
	b.current.Add(x)
	if int(b.current.N()) == b.batchSize {
		b.batches.Add(b.current.Mean())
		b.current = Running{}
	}
}

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// CI95 returns the 95% half-width computed over batch means.
func (b *BatchMeans) CI95() float64 { return b.batches.CI95() }

// Quantiles computes an exact set of quantiles from raw data (sorted
// copy; O(n log n)). Use for modest n when exactness matters more than
// memory.
func Quantiles(data []float64, qs ...float64) []float64 {
	if len(data) == 0 {
		out := make([]float64, len(qs))
		return out
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q <= 0 {
			out[i] = sorted[0]
			continue
		}
		if q >= 1 {
			out[i] = sorted[len(sorted)-1]
			continue
		}
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	return out
}

// RelErr returns |got-want|/|want|, or |got| when want == 0. The test
// suite and the experiment tables (internal/experiments) use it to
// compare simulation with the closed-form model.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
