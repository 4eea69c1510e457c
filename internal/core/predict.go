package core

import "math"

// This file holds the model predictors used by every experiment: given a
// machine and either a pattern's bank loads or summary statistics, they
// return the predicted cycles for a bulk scatter/gather superstep under
// plain BSP accounting and under (d,x)-BSP accounting.

// PredictDXBSP returns the (d,x)-BSP predicted cycles for executing the
// superstep with bank loads p: max(g*h, d*k) + L.
func (m Machine) PredictDXBSP(p Loads) float64 {
	return m.SuperstepCost(p.MaxH, p.MaxK)
}

// PredictBSP returns the plain BSP prediction g*h + L, which ignores banks
// entirely. Comparing this against PredictDXBSP and against simulation is
// the heart of Figure 1.
func (m Machine) PredictBSP(p Loads) float64 {
	return m.BSPCost(p.MaxH)
}

// PredictScatter returns the (d,x)-BSP prediction for a scatter of n
// requests with maximum location contention maxLoc, assuming locations are
// spread over banks as well as possible (no module-map contention): the
// per-bank load is then the larger of the contention at the hottest
// location and the balanced share with a random-mapping fluctuation term.
func (m Machine) PredictScatter(n, maxLoc int) float64 {
	h := ceilDiv(n, m.Procs)
	k := float64(maxLoc)
	if bal := ExpectedMaxLoad(n, m.Banks); bal > k {
		k = bal
	}
	return math.Max(m.G*float64(h), m.D*k) + m.L
}

// exactMaxLoadCutoff is the largest n for which ExpectedMaxLoad computes
// the balls-in-bins maximum exactly rather than approximating it. The
// exact path is O(n^2 log b) per candidate maximum, so the cutoff keeps
// the worst case (n = 64) under ~100k float operations.
const exactMaxLoadCutoff = 64

// exactMaxLoadRangeBits bounds the coefficient dynamic range (in bits)
// the exact path is allowed: the truncated-EGF polynomial q(z)^b has
// coefficients spanning ≈ n·log2(b) - log2(n!) binades, and each
// squaring in the binary exponentiation transiently doubles that span,
// so ranges past ~half the float64 exponent range (1074 bits incl.
// subnormals) underflow low coefficients to zero — and the zeros
// propagate upward until even [z^n] is lost. 500 bits keeps every
// coefficient alive with headroom; beyond it the Poisson union bound is
// near-exact anyway (it only triggers for n ≪ b).
const exactMaxLoadRangeBits = 500

// poissonSumMeanCutoff is the largest mean load n/b for which the
// Poisson union-bound sum is used; the sum walks O(mean) terms, so for
// extreme means the closed-form dense estimate takes over. The dense
// estimate's deviation term sqrt(2·mean·ln b) upper-bounds the union
// bound's at the seam, so the switch jumps (slightly) upward and
// monotonicity in n is preserved.
const poissonSumMeanCutoff = 1e4

// ExpectedMaxLoad approximates the expected maximum bank load when n
// requests to distinct locations are distributed independently and
// uniformly over b banks (the classical balls-in-bins maximum).
//
// The approximation switch-over points are explicit (this used to be a
// silent heuristic cut at n/b < 1, which overestimated the sparse regime
// near the n ≈ b boundary):
//
//   - n <= exactMaxLoadCutoff (64), when n·log2(b) - log2(n!) fits the
//     float64 exponent budget (exactMaxLoadRangeBits): exact.
//     E[max] = Σ_m P(max > m) with P(max <= m) computed from the
//     truncated exponential generating function,
//     P(max <= m) = n! b^-n [z^n] (Σ_{c<=m} z^c/c!)^b,
//     by binary exponentiation of the truncated polynomial.
//   - n/b <= poissonSumMeanCutoff: the Poisson union-bound sum — each
//     bank's load is ≈ Poisson(n/b), so
//     E[max] = Σ_{m>=1} P(max >= m) ≈ Σ_m min(1, b·P(Poisson(n/b) >= m)),
//     which is continuous and monotone in n across the whole sparse,
//     balanced, and moderately dense range (no seam at n/b = ln b).
//   - n/b > poissonSumMeanCutoff (extreme dense): the concentration
//     estimate n/b + sqrt(2 (n/b) ln b), as a performance escape.
//
// The tests validate every regime, and the switch-over boundaries
// themselves, against Monte Carlo simulation.
func ExpectedMaxLoad(n, b int) float64 {
	if n <= 0 || b <= 0 {
		return 0
	}
	if b == 1 {
		return float64(n)
	}
	if n <= exactMaxLoadCutoff {
		rangeBits := float64(n)*math.Log2(float64(b)) - lgamma(float64(n)+1)/math.Ln2
		if rangeBits <= exactMaxLoadRangeBits {
			return exactMaxLoad(n, b)
		}
	}
	mean := float64(n) / float64(b)
	if mean > poissonSumMeanCutoff {
		return mean + math.Sqrt(2*mean*math.Log(float64(b)))
	}
	return poissonTailMaxLoad(mean, float64(b))
}

// exactMaxLoad computes E[max load] exactly for n balls in b bins:
// E[max] = Σ_{m>=0} (1 - P(max <= m)), with the CDF from the truncated
// EGF product. Polynomials are kept in scaled form (coefficients times
// 2^scale) so intermediate values neither underflow nor overflow for any
// b; the loop stops once the survival probability is negligible.
func exactMaxLoad(n, b int) float64 {
	e := 0.0
	for m := 1; m <= n; m++ {
		p := maxLoadCDF(n, b, m-1) // P(max <= m-1)
		e += 1 - p
		if 1-p < 1e-12 {
			break
		}
	}
	return math.Max(e, 1)
}

// maxLoadCDF returns P(max load <= m) for n balls in b bins, exactly:
// n! b^-n [z^n] q(z)^b with q(z) = Σ_{c=0..m} z^c / c!.
func maxLoadCDF(n, b, m int) float64 {
	if m <= 0 {
		// All bins hold at most 0 balls: only possible with no balls.
		if n == 0 {
			return 1
		}
		return 0
	}
	if m >= n {
		return 1
	}
	// q(z) = Σ_{c<=m} z^c/c!, truncated to degree n.
	deg := n
	q := make([]float64, deg+1)
	for c := 0; c <= m && c <= deg; c++ {
		q[c] = 1 / factorial(c)
	}
	// r = q^b by binary exponentiation, with a power-of-two scale factor
	// carried separately to keep coefficients in float range.
	r := []float64{1}
	rScale := 0
	base, baseScale := q, 0
	for e := b; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = polyMulTrunc(r, base, deg)
			rScale += baseScale
			r, rScale = polyRenorm(r, rScale)
		}
		if e > 1 {
			base = polyMulTrunc(base, base, deg)
			baseScale *= 2
			base, baseScale = polyRenorm(base, baseScale)
		}
	}
	if deg >= len(r) {
		return 0
	}
	// P = n! b^-n r[n] 2^rScale, assembled in log2 space.
	if r[deg] <= 0 {
		return 0
	}
	log2p := math.Log2(r[deg]) + float64(rScale) +
		(lgamma(float64(n)+1)-float64(n)*math.Log(float64(b)))/math.Ln2
	p := math.Exp2(log2p)
	if p > 1 {
		p = 1
	}
	return p
}

// polyMulTrunc multiplies two polynomials, truncating to degree deg.
func polyMulTrunc(a, b []float64, deg int) []float64 {
	n := len(a) + len(b) - 1
	if n > deg+1 {
		n = deg + 1
	}
	out := make([]float64, n)
	for i, ai := range a {
		if ai == 0 || i >= n {
			continue
		}
		for j, bj := range b {
			if i+j >= n {
				break
			}
			out[i+j] += ai * bj
		}
	}
	return out
}

// polyRenorm rescales a polynomial's coefficients by a power of two so the
// largest magnitude sits near 1, accumulating the shift into scale.
func polyRenorm(p []float64, scale int) ([]float64, int) {
	maxC := 0.0
	for _, c := range p {
		if a := math.Abs(c); a > maxC {
			maxC = a
		}
	}
	if maxC == 0 {
		return p, scale
	}
	shift := int(math.Round(math.Log2(maxC)))
	if shift == 0 {
		return p, scale
	}
	f := math.Exp2(float64(-shift))
	for i := range p {
		p[i] *= f
	}
	return p, scale + shift
}

func factorial(c int) float64 {
	f := 1.0
	for i := 2; i <= c; i++ {
		f *= float64(i)
	}
	return f
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// poissonTailMaxLoad estimates E[max load] for n = mean·b balls in b
// bins: each bin's load is ≈ Poisson(mean), so
// P(max >= m) <= min(1, b·P(Poisson(mean) >= m)) by the union bound, and
// E[max] = Σ_{m>=1} P(max >= m) is summed with that cap. The union bound
// is tight wherever exceedances of the running threshold are rare, which
// is exactly where the cap stops saturating; the sum is continuous and
// monotone in n with no seam anywhere in its range (it replaced a
// heuristic that overshot near the n ≈ b boundary and a separate dense
// branch that was discontinuous at n/b = ln b).
//
// The pmf recurrence is anchored at the mode ⌊mean⌋ rather than at zero
// so that e^-mean never underflows for large means. Terms below the mode
// need no tail at all: P(Poisson >= m) >= 1/2 there, so with b >= 2 the
// capped term is exactly 1.
func poissonTailMaxLoad(mean, b float64) float64 {
	mode := int(mean)
	var lp0 float64 // log pmf at the mode
	if mode == 0 {
		lp0 = -mean
	} else {
		lp0 = -mean + float64(mode)*math.Log(mean) - lgamma(float64(mode)+1)
	}
	p0 := math.Exp(lp0)
	// cdf = P(Poisson <= mode), summed downward from the mode.
	cdf := p0
	pmf := p0
	for j := mode; j >= 1; j-- {
		pmf *= float64(j) / mean
		cdf += pmf
		if pmf < 1e-18 {
			break
		}
	}
	e := float64(mode) // terms m = 1..mode: b·tail >= b/2 >= 1, capped at 1
	tail := 1 - cdf    // P(Poisson >= mode+1)
	pmf = p0
	for m := mode + 1; ; m++ {
		term := b * tail
		if term > 1 {
			term = 1
		}
		e += term
		if term < 1e-9 || tail <= 0 {
			return math.Max(e, 1)
		}
		pmf *= mean / float64(m) // P(Poisson = m)
		tail -= pmf              // P(Poisson >= m+1)
	}
}

// PredictedSlowdownVsFlat returns the ratio of the (d,x)-BSP prediction for
// a pattern with bank loads p to the prediction for a perfectly flat
// pattern of the same size (contention-free, balanced banks). Values near
// 1 mean contention is immaterial; large values quantify the contention
// penalty.
func (m Machine) PredictedSlowdownVsFlat(p Loads) float64 {
	flat := Loads{
		N:     p.N,
		Procs: p.Procs,
		Banks: p.Banks,
		MaxH:  ceilDiv(p.N, p.Procs),
		MaxK:  ceilDiv(p.N, p.Banks),
	}
	f := m.PredictDXBSP(flat)
	if f == 0 {
		return math.Inf(1)
	}
	return m.PredictDXBSP(p) / f
}

// CyclesPerElement converts a total cycle count for an n-element bulk
// operation into the per-element figure the paper's graphs plot (clock
// cycles per element per processor would be cycles*p/n; the paper plots
// per-element wall cycles times p, i.e. processor-cycles per element).
func CyclesPerElement(cycles float64, n, p int) float64 {
	if n == 0 {
		return 0
	}
	return cycles * float64(p) / float64(n)
}

func ceilDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
