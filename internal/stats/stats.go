// Package stats provides the small statistical helpers the experiment
// harness uses: summaries and series utilities.
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N             int
	Min, Max      float64
	Mean, Std     float64
	P50, P90, P99 float64
	Sum           float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero value.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	for _, x := range xs {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(sq / float64(s.N-1))
	}
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample, linearly interpolating between the two closest order statistics
// (the Hyndman–Fan type-7 definition, numpy's default): the result always
// lies between sorted[floor(q·(n-1))] and sorted[ceil(q·(n-1))] and hits
// the order statistic exactly when q·(n-1) is integral. q outside [0, 1]
// clamps to the sample extremes.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	// a + (b-a)·frac rather than a·(1-frac) + b·frac: with b-a rounded
	// once to a non-negative constant, the product and sum are monotone
	// in frac, so Percentile is monotone in q. The symmetric form is not:
	// its two oppositely-rounded terms can overshoot b by an ulp, making
	// P99 exceed the sample maximum (caught by the order-statistic
	// oracle). The clamp handles the one remaining rounding direction,
	// fl(a + fl(b-a)) > b.
	v := sorted[lo] + (sorted[hi]-sorted[lo])*frac
	if v > sorted[hi] {
		v = sorted[hi]
	}
	return v
}

// Gini returns the Gini coefficient of a non-negative sample: 0 for a
// perfectly even distribution, approaching 1 as the mass concentrates in
// one element. Used to summarize per-bank load imbalance.
func Gini(xs []int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]int, n)
	copy(sorted, xs)
	sort.Ints(sorted)
	var cum, weighted float64
	for i, x := range sorted {
		cum += float64(x)
		weighted += float64(x) * float64(i+1)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}
