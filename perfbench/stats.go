package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// p90 needs at least 100 samples, p99 at least 1000.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
// It returns NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here and by that function agree. It needs
// at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // outside [0, 4] where Python extrapolates
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) and
// whether at least minBeyond samples lie beyond it. A percentile without
// that many samples above it is not reported.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted(xs)[r-1], n-r >= minBeyond
}

// samplesFor is the sample count at which percentile(xs, q) is
// reportable.
func samplesFor(q float64) int {
	for n := minBeyond; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
