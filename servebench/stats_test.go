package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRankWithCount(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		q := percentile(xs, c.p)
		if q.Value != c.want || q.N != 100 {
			t.Errorf("p%g of 1..100 = %v (n=%d), want %v (n=100)", c.p, q.Value, q.N, c.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
	if q := percentile(nil, 99); !math.IsNaN(q.Value) || q.N != 0 {
		t.Errorf("p99 of nothing = %v (n=%d), want NaN (n=0)", q.Value, q.N)
	}
}

func TestMedianOddEvenEmpty(t *testing.T) {
	if q := median([]float64{3, 1, 2}); q.Value != 2 || q.N != 3 {
		t.Errorf("median of 3 values = %v (n=%d)", q.Value, q.N)
	}
	if q := median([]float64{4, 1, 3, 2}); q.Value != 2.5 || q.N != 4 {
		t.Errorf("median of 4 values = %v (n=%d)", q.Value, q.N)
	}
	if q := median(nil); !math.IsNaN(q.Value) || q.N != 0 {
		t.Errorf("median of nothing = %v (n=%d)", q.Value, q.N)
	}
}

func TestTailsBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1000, 10}, {999, 9}, {100, 1}, {10, 0}} {
		if got := tailsBeyond(c.n, 99); got != c.want {
			t.Errorf("tailsBeyond(%d, 99) = %d, want %d", c.n, got, c.want)
		}
	}
}
