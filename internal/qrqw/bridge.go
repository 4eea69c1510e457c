package qrqw

import (
	"fmt"

	"dxbsp/internal/core"
)

// This file bridges captured algorithm traces into QRQW programs: each
// bulk memory operation recorded from a vector-machine run becomes one
// QRQW step, so real algorithms can be costed on the QRQW PRAM and
// re-emulated onto arbitrary (d,x)-BSP machines.

// ProgramFromTraces builds a V-processor QRQW program from a sequence of
// bulk operations, each given as its flat address stream. The addresses
// of each step are distributed round-robin over the virtual processors
// (virtual processor i performs the i-th, (i+V)-th, ... accesses). The
// steps' lists share one address array, and steps of equal length share
// their offsets, which depend on nothing else.
func ProgramFromTraces(steps [][]uint64, v int) Program {
	if v <= 0 {
		panic(fmt.Sprintf("qrqw: ProgramFromTraces with v=%d", v))
	}
	total := 0
	for _, addrs := range steps {
		total += len(addrs)
	}
	flat := make([]uint64, 0, total)
	offs := map[int][]int32{}
	prog := Program{V: v, Steps: make([]Step, len(steps))}
	var pr core.Profiler
	for si, addrs := range steps {
		n := len(addrs)
		off, ok := offs[n]
		if !ok {
			off = make([]int32, v+1)
			for i := range off {
				off[i] = int32(i*(n/v) + min(i, n%v))
			}
			offs[n] = off
		}
		start := len(flat)
		for i := range min(v, n) {
			for j := i; j < n; j += v {
				flat = append(flat, addrs[j])
			}
		}
		prog.Steps[si] = newStep(flat[start:len(flat):len(flat)], off, &pr)
	}
	return prog
}

// StepContentions returns κ for every step — the contention profile of
// the program, the quantity the paper's algorithm studies report.
func (p Program) StepContentions() []int {
	out := make([]int, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.kappa
	}
	return out
}

// MaxContention returns the largest per-step contention in the program.
func (p Program) MaxContention() int {
	m := 0
	for _, s := range p.Steps {
		m = max(m, s.kappa)
	}
	return m
}

// TotalRequests returns the total number of memory accesses.
func (p Program) TotalRequests() int {
	n := 0
	for _, s := range p.Steps {
		n += s.Requests()
	}
	return n
}
