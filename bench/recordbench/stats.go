package main

import (
	"math"
	"sort"
)

// The summaries below return 0 for no samples: a layer a workload never
// reaches reads 0, and JSON has no NaN.

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
}

// beyond counts the samples strictly above the nearest-rank p-quantile of n
// samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailPercentile returns the highest of p99.9, p99, p90 and p50 with at
// least ten samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (its "exclusive" method), so
// spreads read the same here as in Python.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		d := i*m - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return q(1), q(2), q(3)
}
