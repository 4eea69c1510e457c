package qrqw

import (
	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// This file generates synthetic QRQW programs for the emulation
// experiments (F8/F9): programs with one access per virtual processor per
// step and a controlled contention profile.

// onePerVP builds a program of the given number of steps in which each of
// v virtual processors makes one access per step: fill writes step s's
// addresses in virtual-processor order. The steps share one offsets array.
func onePerVP(v, steps int, fill func(s int, addrs []uint64)) Program {
	off := make([]int32, v+1)
	for i := range off {
		off[i] = int32(i)
	}
	flat := make([]uint64, v*steps)
	prog := Program{V: v, Steps: make([]Step, steps)}
	var pr core.Profiler
	for s := range prog.Steps {
		addrs := flat[s*v : (s+1)*v : (s+1)*v]
		fill(s, addrs)
		prog.Steps[s] = newStep(addrs, off, &pr)
	}
	return prog
}

// RandomProgram returns a program of the given number of steps in which
// each of v virtual processors makes one access per step to a location
// drawn uniformly from [0, space). With space >= v the expected contention
// per step is O(log v / log log v) — a low-contention program.
func RandomProgram(v, steps int, space uint64, g *rng.Xoshiro256) Program {
	return onePerVP(v, steps, func(_ int, addrs []uint64) {
		for i := range addrs {
			addrs[i] = g.Uint64n(space)
		}
	})
}

// ContentionProgram returns a program in which every step has maximum
// location contention exactly k: the v processors access v/k distinct
// locations, k processors per location. Locations are drawn from a fresh
// random offset per step so banks vary, and are spaced stride apart so
// distinct locations do not share a bank under interleaving.
func ContentionProgram(v, steps, k int, stride uint64, g *rng.Xoshiro256) Program {
	if k <= 0 || v%k != 0 {
		panic("qrqw: ContentionProgram: k must divide v")
	}
	if stride == 0 {
		stride = 1
	}
	m := v / k
	return onePerVP(v, steps, func(_ int, addrs []uint64) {
		base := g.Uint64n(1 << 40)
		for i := range addrs {
			addrs[i] = base + uint64(i%m)*stride
		}
	})
}
