// Package patterns generates the memory access patterns used by the
// paper's experiments: maximum-contention patterns with a controlled
// number of duplicates (Experiment 1), uniform random patterns
// (Experiment 2), the Thearling–Smith entropy-family patterns obtained by
// iterated bitwise AND (Experiment 3), strided patterns, and permutations.
//
// A pattern here is just a flat []uint64 of memory addresses; core.Pattern
// distributes it over processors.
package patterns

import (
	"fmt"
	"math"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// AllSame returns n requests to the single address addr: maximum location
// contention κ = n.
func AllSame(n int, addr uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = addr
	}
	return a
}

// Contention returns n addresses with maximum location contention exactly
// k (for k dividing n): k copies each of n/k distinct locations. The
// locations are spaced spread apart so that, under interleaved mapping
// with at least n/k banks, no two distinct locations share a bank —
// isolating location contention from module-map contention exactly as the
// paper's Experiment 1 requires. Copies of the same location are spread
// round-robin across the stream so every processor touches every hot
// location equally.
func Contention(n, k int, spread uint64) []uint64 {
	if k <= 0 || n%k != 0 {
		panic(fmt.Sprintf("patterns: Contention(%d,%d): k must be positive and divide n", n, k))
	}
	if spread == 0 {
		spread = 1
	}
	m := n / k // distinct locations
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i%m) * spread
	}
	return a
}

// Uniform returns n addresses drawn independently and uniformly from
// [0, m).
func Uniform(n int, m uint64, g *rng.Xoshiro256) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = g.Uint64n(m)
	}
	return a
}

// Strided returns n addresses at the given stride starting from base:
// base, base+stride, base+2*stride, ...
func Strided(n int, base, stride uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = base + uint64(i)*stride
	}
	return a
}

// Permutation returns a uniformly random permutation of the addresses
// [0, n): every location touched exactly once (κ = 1), in random order.
func Permutation(n int, g *rng.Xoshiro256) []uint64 {
	p := g.Perm(n)
	a := make([]uint64, n)
	for i, v := range p {
		a[i] = uint64(v)
	}
	return a
}

// Entropy generates the Thearling–Smith family of skewed key
// distributions [TS92], as used in the paper's Experiment 3: start from n
// uniform random keys in [0, m); then, rounds times, replace each key by
// the bitwise AND of itself and another key chosen uniformly at random.
// Each round lowers the entropy of the distribution; after many rounds all
// keys are zero (maximum contention).
func Entropy(n int, m uint64, rounds int, g *rng.Xoshiro256) []uint64 {
	if m == 0 || m&(m-1) != 0 {
		panic(fmt.Sprintf("patterns: Entropy: m=%d must be a power of two", m))
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = g.Uint64n(m)
	}
	tmp := make([]uint64, n)
	for r := 0; r < rounds; r++ {
		for i := range tmp {
			tmp[i] = keys[i] & keys[g.Intn(n)]
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Zipf returns n addresses drawn from a Zipf(s) distribution over [0, m):
// address k has probability proportional to 1/(k+1)^s. Skewed reference
// distributions like this are the natural model for irregular application
// data (degree distributions, word frequencies), sitting between the
// uniform and iterated-AND families in contention structure. Sampling is
// by inversion on the precomputed CDF.
func Zipf(n int, m int, s float64, g *rng.Xoshiro256) []uint64 {
	if m <= 0 || s < 0 {
		panic(fmt.Sprintf("patterns: Zipf(m=%d, s=%g)", m, s))
	}
	cdf := make([]float64, m)
	acc := 0.0
	for k := 0; k < m; k++ {
		acc += 1 / math.Pow(float64(k+1), s)
		cdf[k] = acc
	}
	total := cdf[m-1]
	a := make([]uint64, n)
	for i := range a {
		u := g.Float64() * total
		// Binary search the CDF.
		lo, hi := 0, m-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		a[i] = uint64(lo)
	}
	return a
}

// MeasureEntropy returns the empirical Shannon entropy, in bits, of the
// address distribution. The terms are summed in ascending address order,
// so the result is the same float64 on every call.
func MeasureEntropy(addrs []uint64) float64 {
	if len(addrs) == 0 {
		return 0
	}
	var pr core.Profiler
	_, counts := pr.Locations(addrs)
	n := float64(len(addrs))
	h := 0.0
	for _, c := range counts {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// MaxContention returns the maximum number of occurrences of any single
// address (the QRQW contention κ of the pattern).
func MaxContention(addrs []uint64) int {
	var pr core.Profiler
	_, counts := pr.Locations(addrs)
	maxC := 0
	for _, c := range counts {
		maxC = max(maxC, c)
	}
	return maxC
}

// Shuffle returns a copy of addrs in a random order. The paper observes
// that injection order affects network behaviour; the order ablation bench
// uses this.
func Shuffle(addrs []uint64, g *rng.Xoshiro256) []uint64 {
	out := make([]uint64, len(addrs))
	copy(out, addrs)
	g.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// WorstCaseBank returns n distinct addresses that all map to bank 0 under
// interleaved mapping over banks banks (stride = banks). This is the
// worst-case reference pattern of the module-map contention study (F7):
// hardware interleaving serializes it completely, while a random hash map
// spreads it.
func WorstCaseBank(n, banks int) []uint64 {
	return Strided(n, 0, uint64(banks))
}
