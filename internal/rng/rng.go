// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// All experiments in this repository must be exactly reproducible, so we
// avoid math/rand's global state and instead pass explicit generator values.
// Two generators are provided:
//
//   - SplitMix64: a tiny 64-bit generator, mainly used for seeding and for
//     splitting one seed into many independent streams.
//   - Xoshiro256: xoshiro256**, a high-quality general-purpose generator.
//
// Both are from the public-domain reference implementations by Blackman and
// Vigna, transcribed to Go.
package rng

import "math/bits"

// SplitMix64 is a 64-bit generator with a single word of state. Its primary
// use here is turning one user-provided seed into arbitrarily many
// well-distributed seeds for other generators (one per processor stream, one
// per experiment trial, and so on).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 is the xoshiro256** generator: 256 bits of state, period
// 2^256-1, and excellent statistical quality for non-cryptographic use.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 generator seeded from seed via SplitMix64, per
// the authors' recommendation (the raw seed must not be used directly
// because an all-zero state is invalid).
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var g Xoshiro256
	for i := range g.s {
		g.s[i] = sm.Next()
	}
	// Astronomically unlikely, but the all-zero state is the one invalid
	// state for xoshiro; nudge it.
	if g.s[0]|g.s[1]|g.s[2]|g.s[3] == 0 {
		g.s[0] = 0x9e3779b97f4a7c15
	}
	return &g
}

// Clone returns an independent copy of g: the clone and the original
// produce the same stream from this point on without affecting each other.
// Experiment sweep points stash a clone of their input generator so that
// running the same point twice yields identical results.
func (g *Xoshiro256) Clone() *Xoshiro256 {
	c := *g
	return &c
}

// Split returns a new generator with a stream independent of g, derived
// deterministically from g's current state. Splitting then drawing from
// both generators yields streams that do not overlap in practice.
func (g *Xoshiro256) Split() *Xoshiro256 {
	return New(g.Uint64() ^ 0xd2b74407b1ce6e93)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (g *Xoshiro256) Uint64() uint64 {
	result := bits.RotateLeft64(g.s[1]*5, 7) * 9
	t := g.s[1] << 17

	g.s[2] ^= g.s[0]
	g.s[3] ^= g.s[1]
	g.s[1] ^= g.s[2]
	g.s[0] ^= g.s[3]
	g.s[2] ^= t
	g.s[3] = bits.RotateLeft64(g.s[3], 45)

	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (g *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return g.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(g.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(g.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n) as an int. It panics if n <= 0.
func (g *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(g.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (g *Xoshiro256) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n) via Fisher-Yates.
func (g *Xoshiro256) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
