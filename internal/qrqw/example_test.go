package qrqw_test

import (
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/qrqw"
)

// The QRQW queue rule: a step costs its maximum location contention.
func ExampleStep_Cost() {
	// Four virtual processors; three access location 9 concurrently.
	st := qrqw.NewStep([][]uint64{{9}, {9}, {9}, {4}})
	fmt.Printf("cost=%d\n", st.Cost())
	// Output:
	// cost=3
}

// Emulating a QRQW program on a machine whose expansion beats its delay
// is work-preserving: the slowdown matches the slackness v/p.
func ExampleEmulate() {
	m := core.Machine{Name: "m", Procs: 8, Banks: 512, D: 8, G: 1, L: 0}
	acc := make([][]uint64, 128)
	for i := range acc {
		acc[i] = []uint64{uint64(i)} // contention-free step
	}
	prog := qrqw.Program{V: 128, Steps: []qrqw.Step{qrqw.NewStep(acc)}}
	res, err := qrqw.Emulate(prog, m, nil, qrqw.Analytic)
	if err != nil {
		panic(err)
	}
	fmt.Printf("qrqw time %d, emulated %.0f cycles, slowdown %.0f = v/p = %d\n",
		res.QRQWTime, res.Cycles, res.Slowdown(), prog.V/m.Procs)
	// Output:
	// qrqw time 1, emulated 16 cycles, slowdown 16 = v/p = 16
}

// The inevitable d/x work overhead when banks are scarce (x < d).
func ExampleInevitableWorkOverhead() {
	scarce := core.Machine{Name: "s", Procs: 8, Banks: 16, D: 16, G: 1} // x = 2
	ample := core.Machine{Name: "a", Procs: 8, Banks: 512, D: 16, G: 1} // x = 64
	fmt.Println(qrqw.InevitableWorkOverhead(scarce))
	fmt.Println(qrqw.InevitableWorkOverhead(ample))
	// Output:
	// 8
	// 1
}
