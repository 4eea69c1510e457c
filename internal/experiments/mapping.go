package experiments

import (
	"context"
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
	"dxbsp/internal/tablefmt"
)

// This file regenerates the bank-expansion and random-mapping studies:
// F6 (effect of the expansion factor) and F7 (module-map contention).

// expF6 reproduces the expansion study: simulated scatter time of a random
// pattern as the number of banks per processor grows, for both bank
// delays. The paper's second headline result: performance keeps improving
// past the "natural" choice x = d, because extra banks thin the tail of
// the bank-load distribution. One point per expansion factor; the address
// array is drawn once and shared read-only by every point.
func expF6() Experiment {
	return sweep("F6", "Effect of the expansion factor",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("F6: random scatter vs expansion factor (n=%d, p=8, cycles/element)", cfg.N),
				"x", "d=6 sim", "d=6 (d,x)-BSP", "d=14 sim", "d=14 (d,x)-BSP", "flat bound")
		},
		func(cfg Config) []Point {
			n := cfg.N
			g := rng.New(cfg.Seed)
			addrs := patterns.Uniform(n, 1<<40, g)
			xs := []float64{1, 2, 4, 8, 16, 32, 64, 128}
			if cfg.Quick {
				xs = []float64{1, 4, 16, 64}
			}
			var pts []Point
			for _, x := range xs {
				x := x
				pts = append(pts, newPoint(fmt.Sprintf("x=%g", x), func(ctx context.Context, cfg Config) (tableRows, error) {
					row := []interface{}{x}
					for _, d := range []float64{6, 14} {
						m := core.Machine{Name: "exp", Procs: 8, Banks: int(8 * x), D: d, G: 1, L: 0}
						pt := core.NewPattern(addrs, m.Procs)
						loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
						r, err := cfg.RunSim(ctx, sim.Config{Machine: m}, pt)
						if err != nil {
							return nil, err
						}
						row = append(row,
							core.CyclesPerElement(r.Cycles, n, m.Procs),
							core.CyclesPerElement(m.PredictDXBSP(loads), n, m.Procs))
					}
					row = append(row, 1.0) // g cycles/element: the no-contention asymptote
					return tableRows{row}, nil
				}))
			}
			return pts
		})
}

// expF7 reproduces the module-map contention study: for the worst-case
// reference pattern (distinct addresses that hardware interleaving would
// serialize into one bank), the ratio of time under a random linear hash
// map to the time with module-map contention excluded, as a function of
// the expansion factor. The per-trial hash draws come from one shared
// stream, so Points splits a generator per trial in sweep order.
func expF7() Experiment {
	return sweep("F7", "Module-map contention ratio vs expansion",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("F7: module-map contention under random hashing (n=%d, p=8)", cfg.N),
				"x", "banks", "identity ratio", "hashed ratio (mean)", "hashed time/elem", "ideal time/elem")
		},
		func(cfg Config) []Point {
			n := cfg.N
			trials := 5
			if cfg.Quick {
				trials = 2
			}
			g := rng.New(cfg.Seed)
			mBitsList := []uint{3, 5, 7, 9, 11, 13}
			if cfg.Quick {
				mBitsList = []uint{5, 9, 13}
			}
			var pts []Point
			for _, mBits := range mBitsList {
				mBits := mBits
				splits := make([]*rng.Xoshiro256, trials)
				for tr := range splits {
					splits[tr] = g.Split()
				}
				pts = append(pts, newPoint(fmt.Sprintf("banks=%d", 1<<mBits), func(ctx context.Context, cfg Config) (tableRows, error) {
					banks := 1 << mBits
					m := core.Machine{Name: "map", Procs: 8, Banks: banks, D: 6, G: 1, L: 0}
					addrs := patterns.WorstCaseBank(n, banks)

					// Time with module-map contention excluded: locations
					// perfectly spread, max bank load = ceil(n/banks).
					ideal := m.SuperstepCost((n+m.Procs-1)/m.Procs, (n+banks-1)/banks)

					// Identity mapping: fully serialized.
					ptI := core.NewPattern(addrs, m.Procs)
					rI, err := cfg.RunSim(ctx, sim.Config{Machine: m}, ptI)
					if err != nil {
						return nil, err
					}

					// Random linear hashing, averaged over draws.
					var hashed float64
					for _, sp := range splits {
						bm := hashfn.Map{F: hashfn.NewLinear(mBits, sp.Clone())}
						r, err := cfg.RunSim(ctx, sim.Config{Machine: m, BankMap: bm}, ptI)
						if err != nil {
							return nil, err
						}
						hashed += r.Cycles
					}
					hashed /= float64(trials)

					return oneRow(float64(banks)/8, banks,
						rI.Cycles/ideal, hashed/ideal,
						core.CyclesPerElement(hashed, n, m.Procs),
						core.CyclesPerElement(ideal, n, m.Procs)), nil
				}))
			}
			return pts
		})
}
