package sim_test

import (
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/sim"
)

// Simulate a maximum-contention scatter and compare against the model.
func ExampleRun() {
	m := core.J90()
	n := 1024
	pt := core.NewPattern(patterns.AllSame(n, 0), m.Procs)
	r, err := sim.Run(sim.Config{Machine: m}, pt)
	if err != nil {
		panic(err)
	}
	loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
	fmt.Printf("simulated %.0f, predicted %.0f cycles\n", r.Cycles, m.PredictDXBSP(loads))
	fmt.Printf("one bank served %d requests\n", r.MaxBankServed)
	// Output:
	// simulated 14336, predicted 14336 cycles
	// one bank served 1024 requests
}

// The DRAM discipline models open-row hits against row conflicts: a
// sequential scatter walks each bank's rows in order, so most accesses hit
// the open row and only row crossings pay the miss penalty.
func ExampleBankConfig() {
	m := core.J90()
	pt := core.NewPattern(patterns.Strided(8192, 0, 1), m.Procs)
	r, err := sim.Run(sim.Config{Machine: m,
		Bank: sim.BankConfig{Discipline: sim.DRAM, RowWords: 4096}}, pt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("row hits %d, row conflicts %d\n", r.RowHits, r.RowConflicts)
	// Output:
	// row hits 7168, row conflicts 1024
}

// Under the GPUShared discipline a 32-lane warp issues together over 32
// word-interleaved banks; lanes that collide on a bank serialize as
// replays. Odd word strides are conflict-free, power-of-two strides
// serialize gcd(stride, 32) lanes per bank.
func ExampleBankConfig_gpuShared() {
	sm := core.Machine{Name: "SM", Procs: 1, Banks: 32, D: 1, G: 1, L: 2}
	for _, stride := range []uint64{1, 2, 32} {
		addrs := make([]uint64, 32) // one warp, byte addresses, 4-byte words
		for i := range addrs {
			addrs[i] = uint64(i) * stride * 4
		}
		r, err := sim.Run(sim.Config{Machine: sm,
			Bank: sim.BankConfig{Discipline: sim.GPUShared}}, core.NewPattern(addrs, 1))
		if err != nil {
			panic(err)
		}
		fmt.Printf("stride %2d: %2d replays\n", stride, r.WarpReplays)
	}
	// Output:
	// stride  1:  0 replays
	// stride  2: 16 replays
	// stride 32: 31 replays
}

// The cached-DRAM bank extension collapses repeated hits on one row.
func ExampleConfig_bankCache() {
	m := core.J90()
	pt := core.NewPattern(patterns.AllSame(1024, 0), m.Procs)
	plain, _ := sim.Run(sim.Config{Machine: m}, pt)
	cached, _ := sim.Run(sim.Config{Machine: m, Bank: sim.BankConfig{CacheLines: 4}}, pt)
	fmt.Printf("row hits: %d, speedup ≈ %.0fx\n",
		cached.RowHits, plain.Cycles/cached.Cycles)
	// Output:
	// row hits: 1023, speedup ≈ 14x
}
