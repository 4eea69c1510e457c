package core_test

import (
	"fmt"

	"dxbsp/internal/core"
)

// Describe a machine and query the model's headline quantities.
func ExampleMachine() {
	m := core.J90()
	fmt.Printf("expansion x = %.0f\n", m.Expansion())
	fmt.Printf("effective bank gap d/x = %.3f\n", m.EffectiveBankGap())
	fmt.Printf("bandwidth matched: %v\n", m.BandwidthMatched())
	// Output:
	// expansion x = 64
	// effective bank gap d/x = 0.219
	// bandwidth matched: true
}

// The superstep cost law: max(g*h, d*k) + L.
func ExampleMachine_SuperstepCost() {
	m := core.Machine{Name: "m", Procs: 8, Banks: 512, D: 14, G: 1, L: 100}
	fmt.Println(m.SuperstepCost(8192, 10))   // bandwidth-bound
	fmt.Println(m.SuperstepCost(8192, 4096)) // contention-bound
	// Output:
	// 8292
	// 57444
}

// Profile an access pattern and compare the two models' predictions.
func ExampleComputeProfile() {
	m := core.J90()
	// 16 requests: eight to location 0, eight spread out.
	addrs := []uint64{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	pt := core.NewPattern(addrs, m.Procs)
	prof := core.ComputeProfile(pt, core.InterleaveMap{Banks: m.Banks})
	fmt.Printf("h=%d k=%d κ=%d distinct=%d\n", prof.MaxH, prof.MaxK, prof.MaxLoc, prof.DistinctLocs)
	fmt.Printf("BSP=%.0f (d,x)-BSP=%.0f\n", m.PredictBSP(prof.Loads), m.PredictDXBSP(prof.Loads))
	// Output:
	// h=2 k=8 κ=8 distinct=9
	// BSP=2 (d,x)-BSP=112
}

// The contention crossover: where a scatter stops being bandwidth-bound.
func ExampleMachine_ContentionCrossover() {
	m := core.J90()
	fmt.Printf("k* = %.1f\n", m.ContentionCrossover(65536))
	// Output:
	// k* = 585.1
}
