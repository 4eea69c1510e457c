package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("bad extrema: %+v", s)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v", s.Std)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.Sum != 15 {
		t.Errorf("Sum = %v", s.Sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Max != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Min != 42 || s.Max != 42 || s.Mean != 42 || s.Std != 0 {
		t.Errorf("single summary: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Errorf("even Gini = %v", g)
	}
	// All mass in one of many bins: approaches 1.
	xs := make([]int, 100)
	xs[0] = 1000
	if g := Gini(xs); g < 0.95 {
		t.Errorf("concentrated Gini = %v", g)
	}
	if Gini(nil) != 0 || Gini([]int{0, 0}) != 0 {
		t.Error("degenerate Gini should be 0")
	}
	// Skewed beats uniform.
	if Gini([]int{1, 2, 3, 10}) <= Gini([]int{4, 4, 4, 4}) {
		t.Error("Gini ordering wrong")
	}
}
