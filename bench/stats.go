package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: a p99 drawn from 200 samples is two requests.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of an
// ascending slice: the smallest sample with at least p·n samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentile is percentile under the minBeyond rule: ok is false,
// and the value 0, when fewer than minBeyond samples lie above the
// percentile's rank.
func tailPercentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the cut points Python's
// statistics.quantiles(v, n=4) gives (its default, exclusive method),
// which is what the benchmark's acceptance check computes spreads with.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure bounds are set against. 0 for fewer than two
// values or a zero median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// p50 is the nearest-rank median of samples in any order.
func p50(samples []float64) float64 { return percentile(sortedCopy(samples), 0.5) }
