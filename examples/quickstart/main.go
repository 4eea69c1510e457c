// Quickstart: describe a machine in (d,x)-BSP terms, profile an access
// pattern, predict its cost, and check the prediction against the
// cycle-level bank simulator.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
)

func main() {
	// The simulated 8-processor Cray J90: 512 DRAM banks (expansion
	// x = 64), bank delay d = 14 cycles, gap g = 1.
	m := core.J90()
	fmt.Println("machine:", m)
	fmt.Printf("effective bank gap d/x = %.3f (memory keeps up with processors: %v)\n\n",
		m.EffectiveBankGap(), m.BandwidthMatched())

	n := 1 << 16
	fmt.Printf("scatter of n=%d elements; contention crossover k* = %.0f\n\n",
		n, m.ContentionCrossover(n))

	g := rng.New(42)
	cases := []struct {
		name  string
		addrs []uint64
	}{
		{"unit stride (no contention)", patterns.Strided(n, 0, 1)},
		{"uniform random", patterns.Uniform(n, 1<<30, g)},
		{"contention k=1024", patterns.Contention(n, 1024, 1)},
		{"all to one location", patterns.AllSame(n, 7)},
	}
	fmt.Printf("%-30s %12s %12s %12s\n", "pattern", "BSP", "(d,x)-BSP", "simulated")
	for _, c := range cases {
		pt := core.NewPattern(c.addrs, m.Procs)
		loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
		r, err := sim.Run(sim.Config{Machine: m}, pt)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-30s %12.0f %12.0f %12.0f\n",
			c.name, m.PredictBSP(loads), m.PredictDXBSP(loads), r.Cycles)
	}
	fmt.Println("\nBSP misses the contention entirely; the (d,x)-BSP tracks the simulator.")
}
