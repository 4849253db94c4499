package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{7.5, 1.25, 3.0, 9.75, 2.5, 4.0, 8.0}, [3]float64{2.5, 4.0, 8.0}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		if !ok || got != tc.want {
			t.Errorf("quartiles(%v) = %v (ok=%v), want %v", tc.xs, got, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if v, ok := percentile(seq(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v (ok=%v), want 90 ok", v, ok)
	}
	if _, ok := percentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples reported: only 9 lie beyond it")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v (ok=%v), want 10 ok", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples reported: only 9 lie beyond it")
	}
	if n := samplesFor(0.9); n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	if n := samplesFor(0.99); n != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", n)
	}
}
