package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	// 1..1000: p99 is the 990th value, with ten samples beyond it.
	var big []float64
	for i := 1000; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	if xs[0] != 15 || big[0] != 1000 {
		t.Error("percentile modified its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartiles pins the helper to Python's statistics.quantiles(xs, n=4)
// (method "exclusive"); the expected values were computed with Python.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, 4, 6.5},
		{[]float64{5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}
