package core

import (
	"math"
	"testing"

	"dxbsp/internal/rng"
)

func TestPredictDXBSPVsBSP(t *testing.T) {
	m := J90()
	n := 65536
	// Flat profile: both models agree (memory keeps up, x=64 >= d=14).
	flat := Loads{N: n, Procs: 8, Banks: 512, MaxH: n / 8, MaxK: n / 512}
	if dx, bsp := m.PredictDXBSP(flat), m.PredictBSP(flat); dx != bsp {
		t.Errorf("flat pattern: dx=%v bsp=%v, want equal", dx, bsp)
	}
	// Hot profile: dx prediction must exceed bsp.
	hot := Loads{N: n, Procs: 8, Banks: 512, MaxH: n / 8, MaxK: n}
	if dx, bsp := m.PredictDXBSP(hot), m.PredictBSP(hot); dx <= bsp {
		t.Errorf("hot pattern: dx=%v should exceed bsp=%v", dx, bsp)
	}
}

func TestPredictScatterMonotoneInContention(t *testing.T) {
	m := J90()
	n := 65536
	prev := 0.0
	for k := 1; k <= n; k *= 4 {
		p := m.PredictScatter(n, k)
		if p < prev {
			t.Errorf("PredictScatter not monotone at k=%d: %v < %v", k, p, prev)
		}
		prev = p
	}
	// At k=n the scatter is fully serialized through one bank.
	if got, want := m.PredictScatter(n, n), m.D*float64(n); got < want {
		t.Errorf("full contention prediction %v < serial bound %v", got, want)
	}
}

func TestPredictScatterCrossover(t *testing.T) {
	m := J90()
	n := 65536
	kStar := m.ContentionCrossover(n) // ≈ 585
	// Well below crossover: flat cost.
	lo := m.PredictScatter(n, int(kStar/8))
	flat := m.PredictScatter(n, 1)
	if math.Abs(lo-flat)/flat > 0.05 {
		t.Errorf("below crossover should be ~flat: %v vs %v", lo, flat)
	}
	// Well above: cost ≈ d*k.
	k := int(kStar * 16)
	hi := m.PredictScatter(n, k)
	if want := m.D * float64(k); math.Abs(hi-want)/want > 0.05 {
		t.Errorf("above crossover: %v, want ≈ %v", hi, want)
	}
}

func TestExpectedMaxLoadDense(t *testing.T) {
	// Monte Carlo check in the dense regime.
	const n, b = 100000, 512
	g := rng.New(17)
	trials := 20
	sum := 0.0
	for tr := 0; tr < trials; tr++ {
		loads := make([]int, b)
		for i := 0; i < n; i++ {
			loads[g.Uint64n(b)]++
		}
		maxL := 0
		for _, l := range loads {
			if l > maxL {
				maxL = l
			}
		}
		sum += float64(maxL)
	}
	mc := sum / float64(trials)
	est := ExpectedMaxLoad(n, b)
	if ratio := est / mc; ratio < 0.85 || ratio > 1.25 {
		t.Errorf("dense ExpectedMaxLoad=%v vs MC=%v (ratio %v)", est, mc, ratio)
	}
}

func TestExpectedMaxLoadSparse(t *testing.T) {
	// n << b: expected max is small (around ln n / ln ln n); check it is
	// in a sane band via Monte Carlo.
	const n, b = 100, 10000
	g := rng.New(23)
	trials := 50
	sum := 0.0
	for tr := 0; tr < trials; tr++ {
		loads := make(map[uint64]int)
		maxL := 0
		for i := 0; i < n; i++ {
			k := g.Uint64n(b)
			loads[k]++
			if loads[k] > maxL {
				maxL = loads[k]
			}
		}
		sum += float64(maxL)
	}
	mc := sum / float64(trials)
	est := ExpectedMaxLoad(n, b)
	if est < 1 || est > mc*3 || mc > est*3 {
		t.Errorf("sparse ExpectedMaxLoad=%v vs MC=%v", est, mc)
	}
}

func TestExpectedMaxLoadEdgeCases(t *testing.T) {
	if got := ExpectedMaxLoad(0, 10); got != 0 {
		t.Errorf("n=0: %v", got)
	}
	if got := ExpectedMaxLoad(10, 0); got != 0 {
		t.Errorf("b=0: %v", got)
	}
	if got := ExpectedMaxLoad(37, 1); got != 37 {
		t.Errorf("b=1: %v, want 37", got)
	}
	if got := ExpectedMaxLoad(1, 100); got < 1 {
		t.Errorf("n=1: %v, want >= 1", got)
	}
}

// TestExpectedMaxLoadRegimes validates every approximation regime and
// every switch-over boundary against Monte Carlo: the exact EGF path
// (n <= 64), both sides of the exact/Poisson seam (n = 64 vs 65), the
// sparse union-bound band, the old silently-misestimated n ≈ b
// boundary, the dense band, and the huge-b case where the exact path's
// polynomial coefficients once underflowed wholesale and returned n
// instead of ≈ 1 (the regression that motivated the range guard).
func TestExpectedMaxLoadRegimes(t *testing.T) {
	cases := []struct {
		n, b   int
		trials int
	}{
		{1, 100, 50},
		{8, 64, 400},
		{16, 16, 400},
		{32, 512, 400},
		{64, 64, 400},      // last exact-path n
		{64, 10000, 400},   // exact range guard trips -> Poisson path
		{65, 64, 400},      // first approximated n
		{100, 10000, 400},  // sparse: the old heuristic overshot here
		{100, 128, 400},    // n ≈ b boundary
		{512, 512, 200},    // n = b
		{3000, 512, 100},   // just below the old dense seam (n/b vs ln b)
		{4000, 512, 100},   // just above it
		{100000, 512, 20},  // dense
		{64, 1 << 20, 100}, // huge b: regression, was 64.0 vs true ≈ 1.0
	}
	g := rng.New(41)
	for _, c := range cases {
		sum := 0.0
		loads := make(map[uint64]int)
		for tr := 0; tr < c.trials; tr++ {
			clear(loads)
			maxL := 0
			for i := 0; i < c.n; i++ {
				k := g.Uint64n(uint64(c.b))
				loads[k]++
				if loads[k] > maxL {
					maxL = loads[k]
				}
			}
			sum += float64(maxL)
		}
		mc := sum / float64(c.trials)
		est := ExpectedMaxLoad(c.n, c.b)
		if ratio := est / mc; ratio < 0.85 || ratio > 1.2 {
			t.Errorf("ExpectedMaxLoad(%d, %d) = %v vs MC %v (ratio %.3f)",
				c.n, c.b, est, mc, ratio)
		}
	}
}

// TestExpectedMaxLoadMonotoneFine walks n by small steps so the
// switch-over points themselves (exact->Poisson at n=65, and the old
// dense seam near n/b = ln b, which used to break monotonicity at
// b=512, n=3195) are crossed one step at a time.
func TestExpectedMaxLoadMonotoneFine(t *testing.T) {
	for _, b := range []int{2, 16, 512, 1 << 20} {
		prev := 0.0
		for n := 1; n <= 1<<17; n = n + 1 + n/64 {
			v := ExpectedMaxLoad(n, b)
			if v < prev {
				t.Fatalf("b=%d: not monotone at n=%d: %v < %v", b, n, v, prev)
			}
			prev = v
		}
	}
}

func TestExpectedMaxLoadMonotone(t *testing.T) {
	prev := 0.0
	for n := 1; n <= 1<<20; n *= 2 {
		v := ExpectedMaxLoad(n, 512)
		if v < prev {
			t.Errorf("ExpectedMaxLoad not monotone in n at %d: %v < %v", n, v, prev)
		}
		prev = v
	}
}

func TestPredictedSlowdownVsFlat(t *testing.T) {
	m := J90()
	n := 65536
	flat := Loads{N: n, Procs: 8, Banks: 512, MaxH: n / 8, MaxK: n / 512}
	if s := m.PredictedSlowdownVsFlat(flat); math.Abs(s-1) > 1e-9 {
		t.Errorf("flat slowdown = %v, want 1", s)
	}
	hot := flat
	hot.MaxK = n
	if s := m.PredictedSlowdownVsFlat(hot); s < 10 {
		t.Errorf("hot slowdown = %v, want large", s)
	}
}

func TestCyclesPerElement(t *testing.T) {
	if got := CyclesPerElement(8000, 1000, 8); got != 64 {
		t.Errorf("CyclesPerElement = %v, want 64", got)
	}
	if got := CyclesPerElement(100, 0, 8); got != 0 {
		t.Errorf("n=0: %v, want 0", got)
	}
}
