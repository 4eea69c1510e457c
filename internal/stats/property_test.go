package stats

import (
	"math"
	"sort"
	"testing"

	"dxbsp/internal/rng"
)

// These tests check stats against brute-force oracles on randomized
// inputs (deterministic generator, so failures reproduce). The oracle for
// Percentile is order-statistic selection: whatever interpolation rule
// the implementation uses, a q-quantile that escapes the two bracketing
// order statistics is wrong.

func randomSample(g *rng.Xoshiro256, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch g.Intn(4) {
		case 0: // small integers force duplicates
			xs[i] = float64(g.Intn(8))
		case 1:
			xs[i] = g.Float64()*200 - 100
		case 2:
			xs[i] = math.Exp(g.Float64()*20 - 10)
		default:
			xs[i] = -xs[max(0, i-1)] // correlated sign flips
		}
	}
	return xs
}

func TestPercentileAgainstOrderStatisticOracle(t *testing.T) {
	g := rng.New(0xdecaf)
	for trial := 0; trial < 200; trial++ {
		n := 1 + g.Intn(50)
		sorted := randomSample(g, n)
		sort.Float64s(sorted)

		// Bracketing: for any q, the result lies between the order
		// statistics at floor and ceil of the interpolation position.
		for probe := 0; probe < 20; probe++ {
			q := g.Float64()
			got := Percentile(sorted, q)
			pos := q * float64(n-1)
			lo, hi := sorted[int(math.Floor(pos))], sorted[int(math.Ceil(pos))]
			if got < lo || got > hi {
				t.Fatalf("Percentile(n=%d, q=%g) = %g escapes bracket [%g, %g]", n, q, got, lo, hi)
			}
		}

		// Exactness at grid points: q = k/(n-1) must return sorted[k]
		// up to one interpolation ulp between the bracketing values.
		for k := 0; k < n; k++ {
			q := 0.0
			if n > 1 {
				q = float64(k) / float64(n-1)
			}
			got := Percentile(sorted, q)
			want := sorted[k]
			span := math.Abs(sorted[min(k+1, n-1)]-sorted[max(k-1, 0)]) + math.Abs(want)
			if math.Abs(got-want) > 1e-9*span {
				t.Fatalf("Percentile(n=%d, q=%d/%d) = %g, want order statistic %g", n, k, n-1, got, want)
			}
		}

		// Monotonicity in q.
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := Percentile(sorted, q)
			if v < prev {
				t.Fatalf("Percentile not monotone at q=%g: %g < %g (n=%d)", q, v, prev, n)
			}
			prev = v
		}
	}
}

func TestSummarizeAgainstBruteForce(t *testing.T) {
	g := rng.New(0xfeed)
	for trial := 0; trial < 100; trial++ {
		xs := randomSample(g, 1+g.Intn(40))
		s := Summarize(xs)

		min0, max0, sum := xs[0], xs[0], 0.0
		for _, x := range xs {
			if x < min0 {
				min0 = x
			}
			if x > max0 {
				max0 = x
			}
			sum += x
		}
		if s.N != len(xs) || s.Min != min0 || s.Max != max0 {
			t.Fatalf("Summarize extrema wrong: %+v vs min=%g max=%g", s, min0, max0)
		}
		if math.Abs(s.Sum-sum) > 1e-9*(1+math.Abs(sum)) {
			t.Fatalf("Sum = %g, want %g", s.Sum, sum)
		}
		if math.Abs(s.Mean-sum/float64(len(xs))) > 1e-9*(1+math.Abs(s.Mean)) {
			t.Fatalf("Mean = %g, want %g", s.Mean, sum/float64(len(xs)))
		}
		if s.Std < 0 || math.IsNaN(s.Std) {
			t.Fatalf("Std = %g", s.Std)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
