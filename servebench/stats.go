package main

import (
	"math"
	"sort"
)

// quantile is one order statistic of a sample: its value and how many
// observations it was taken from, so a reader can tell a p99 of 50 samples
// (the maximum, really) from a p99 of 5000.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// xs is not modified. An empty sample yields NaN with N = 0.
func percentile(xs []float64, p float64) quantile {
	if len(xs) == 0 {
		return quantile{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return quantile{Value: s[rank-1], N: len(s)}
}

// median is the middle of xs, averaging the two middle values of an even
// sample. An empty sample yields NaN with N = 0.
func median(xs []float64) quantile {
	if len(xs) == 0 {
		return quantile{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	v := s[m]
	if len(s)%2 == 0 {
		v = (s[m-1] + s[m]) / 2
	}
	return quantile{Value: v, N: len(s)}
}

// tailsBeyond is how many observations lie strictly above the p-th
// percentile: a percentile is worth reporting only when at least ten do.
func tailsBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}
