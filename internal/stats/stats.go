// Package stats provides the summary statistics and reporting utilities
// used by the simulator and the experiment harness: numerically stable
// running moments (Welford), confidence intervals, batch-means analysis
// for steady-state simulation output, time-weighted averages for
// utilisation-style quantities, histograms, and plain-text / CSV table
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

// AddN incorporates the same observation n times.
func (r *Running) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		r.Add(x)
	}
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

// Merge combines another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n1, n2 := float64(r.n), float64(o.n)
	delta := o.mean - r.mean
	tot := n1 + n2
	r.mean += delta * n2 / tot
	r.m2 += o.m2 + delta*delta*n1*n2/tot
	r.n += o.n
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
}

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

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int64 { return b.batches.N() }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// CI95 returns the 95% half-width computed over batch means.
func (b *BatchMeans) CI95() float64 { return b.batches.CI95() }

// Histogram counts observations into fixed-width bins over [Low, High);
// out-of-range values go to under/overflow counters.
type Histogram struct {
	Low, High float64
	bins      []int64
	under     int64
	over      int64
	total     int64
}

// NewHistogram creates a histogram with n bins spanning [low, high).
// It panics if n <= 0 or high <= low.
func NewHistogram(low, high float64, n int) *Histogram {
	if n <= 0 || high <= low {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Low: low, High: high, bins: make([]int64, n)}
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Low:
		h.under++
	case x >= h.High:
		h.over++
	default:
		i := int((x - h.Low) / (h.High - h.Low) * float64(len(h.bins)))
		if i == len(h.bins) { // guard against rounding at the top edge
			i--
		}
		h.bins[i]++
	}
}

// Bin returns the count of bin i.
func (h *Histogram) Bin(i int) int64 { return h.bins[i] }

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// Total returns the number of observations, including out-of-range ones.
func (h *Histogram) Total() int64 { return h.total }

// Underflow returns the count of observations below Low.
func (h *Histogram) Underflow() int64 { return h.under }

// Overflow returns the count of observations at or above High.
func (h *Histogram) Overflow() int64 { return h.over }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// interpolation within bins. Out-of-range mass is attributed to the
// boundary values.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	cum := float64(h.under)
	if target <= cum {
		return h.Low
	}
	width := (h.High - h.Low) / float64(len(h.bins))
	for i, c := range h.bins {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Low + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.High
}

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
