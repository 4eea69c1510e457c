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
// (virtual processor i performs the i-th, (i+V)-th, ... accesses).
func ProgramFromTraces(steps [][]uint64, v int) Program {
	if v <= 0 {
		panic(fmt.Sprintf("qrqw: ProgramFromTraces with v=%d", v))
	}
	prog := Program{V: v}
	for _, addrs := range steps {
		st := Step{Accesses: make([][]uint64, v)}
		for i, a := range addrs {
			p := i % v
			st.Accesses[p] = append(st.Accesses[p], a)
		}
		prog.Steps = append(prog.Steps, st)
	}
	return prog
}

// StepContentions returns κ for every step — the contention profile of
// the program, the quantity the paper's algorithm studies report.
func (p Program) StepContentions() []int {
	var pr core.Profiler
	out := make([]int, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.contention(&pr)
	}
	return out
}

// MaxContention returns the largest per-step contention in the program.
func (p Program) MaxContention() int {
	var pr core.Profiler
	m := 0
	for _, s := range p.Steps {
		m = max(m, s.contention(&pr))
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
