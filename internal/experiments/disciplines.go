package experiments

import (
	"context"
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
	"dxbsp/internal/tablefmt"
)

// This file holds the discipline studies (D1–D3): one experiment family
// per non-FIFO bank service discipline, exercising the scenarios the
// Discipline API opens beyond the paper's plain-FIFO banks. dxbench
// -discipline selects a family via ForDiscipline.

// ForDiscipline returns the experiment family that exercises one bank
// service discipline. FIFO maps to the paper's own calibration plus the
// HS93 row-buffer ablation, which ran on FIFO banks before the
// discipline API existed.
func ForDiscipline(d sim.Discipline) []Experiment {
	switch d {
	case sim.FIFO:
		return []Experiment{expT2(), expX2()}
	case sim.DRAM:
		return []Experiment{expD1()}
	case sim.Regulated:
		return []Experiment{expD2()}
	case sim.GPUShared:
		return []Experiment{expD3()}
	default:
		return nil
	}
}

// expD1 sweeps access stride under the DRAM discipline: strided scatters
// walk each bank's address space at 512*stride words per visit (the J90
// interleaves 512 banks), so with 4096-word rows the row-buffer hit rate
// decays as 1 - stride/8 until stride 8 kills all reuse. FIFO banks charge
// every access d cycles regardless; DRAM banks collapse toward HitDelay
// on sequential strides and degrade to MissDelay-dominated beyond.
func expD1() Experiment {
	return sweep("D1", "Discipline: DRAM row-buffer locality vs access stride",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("D1: DRAM row locality vs stride (n=%d, J90, 4096-word rows)", cfg.N),
				"stride (words)", "dram cyc/elt", "fifo cyc/elt", "row hit rate", "row conflicts")
		},
		func(cfg Config) []Point {
			n := cfg.N
			strides := []uint64{1, 3, 5, 7, 9, 17}
			if cfg.Quick {
				strides = []uint64{1, 7}
			}
			var pts []Point
			for _, s := range strides {
				s := s
				pts = append(pts, newPoint(fmt.Sprintf("stride=%d", s), func(ctx context.Context, cfg Config) (tableRows, error) {
					m := core.J90()
					pt := core.NewPattern(patterns.Strided(n, 0, s), m.Procs)
					dram, err := cfg.RunSim(ctx, sim.Config{Machine: m,
						Bank: sim.BankConfig{Discipline: sim.DRAM, RowWords: 4096}}, pt)
					if err != nil {
						return nil, err
					}
					fifo, err := cfg.RunSim(ctx, sim.Config{Machine: m}, pt)
					if err != nil {
						return nil, err
					}
					return oneRow(s,
						core.CyclesPerElement(dram.Cycles, n, m.Procs),
						core.CyclesPerElement(fifo.Cycles, n, m.Procs),
						float64(dram.RowHits)/float64(n),
						dram.RowConflicts), nil
				}))
			}
			return pts
		})
}

// expD2 sweeps the per-bank service budget of the Regulated discipline
// over a uniform pattern and a hot-bank mix (every second request hits
// bank 0). Uniform traffic rarely exhausts a window, so regulation is
// nearly free; the hot bank overdraws every window and is deferred, which
// is the isolation/QoS trade the discipline models. The "unlimited" row
// is the plain FIFO bank, the budget→∞ limit.
func expD2() Experiment {
	return sweep("D2", "Discipline: bandwidth-regulated banks under a hot-bank mix",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("D2: regulated banks, budget per 4d-cycle window (n=%d, J90)", cfg.N),
				"budget", "uniform cyc/elt", "mix cyc/elt", "mix stalls", "mix stall cyc/req")
		},
		func(cfg Config) []Point {
			n := cfg.N
			// 0 is the unlimited sentinel: plain FIFO banks.
			budgets := []int{0, 16, 8, 4, 2, 1}
			if cfg.Quick {
				budgets = []int{0, 4, 1}
			}
			// The shared draws happen here, before the fan-out, so the sweep
			// is value-identical for any worker count.
			uniform := patterns.Uniform(n, 1<<30, rng.New(cfg.Seed))
			mix := make([]uint64, n)
			for i, a := range uniform {
				if i%2 == 0 {
					mix[i] = a
				}
				// Odd slots stay 0: every second request lands on bank 0.
			}
			// Built once, so every point submits the same slices and the
			// cache's digest memo hashes each pattern once.
			m := core.J90()
			pu, pm := core.NewPattern(uniform, m.Procs), core.NewPattern(mix, m.Procs)
			var pts []Point
			for _, b := range budgets {
				b := b
				label := fmt.Sprintf("budget=%d", b)
				if b == 0 {
					label = "unlimited"
				}
				pts = append(pts, newPoint(label, func(ctx context.Context, cfg Config) (tableRows, error) {
					sc := sim.Config{Machine: m}
					if b > 0 {
						sc.Bank = sim.BankConfig{Discipline: sim.Regulated, RegBudget: b}
					}
					ru, err := cfg.RunSim(ctx, sc, pu)
					if err != nil {
						return nil, err
					}
					rm, err := cfg.RunSim(ctx, sc, pm)
					if err != nil {
						return nil, err
					}
					return oneRow(label,
						core.CyclesPerElement(ru.Cycles, n, m.Procs),
						core.CyclesPerElement(rm.Cycles, n, m.Procs),
						rm.ThrottleStalls,
						rm.ThrottleStallCycles/float64(n)), nil
				}))
			}
			return pts
		})
}

// smMachine is the GPU streaming-multiprocessor stand-in for the D3
// study: one warp scheduler over 32 word-interleaved shared-memory banks,
// single-cycle services, and a short fixed network latency. A single
// scheduler keeps the replay column a pure function of intra-warp
// conflicts (concurrent schedulers would add cross-warp queueing on the
// same banks and drown the stride signal).
func smMachine() core.Machine {
	return core.Machine{Name: "SM", Procs: 1, Banks: 32, D: 1, G: 1, L: 2}
}

// expD3 sweeps the word stride of a warp's access pattern under the
// GPUShared discipline — the canonical shared-memory bank-conflict
// experiment. With 32 banks, a stride-s warp touches 32/gcd(s,32)
// distinct banks, so gcd(s,32) lanes serialize on each (the conflict
// degree); odd strides are conflict-free and power-of-two strides are
// the worst case. Replays per warp count the serialized lanes directly.
func expD3() Experiment {
	return sweep("D3", "Discipline: GPU shared-memory bank conflicts vs word stride",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("D3: GPU shared-memory conflicts vs word stride (n=%d, 32-lane warps, 32 banks)", cfg.N),
				"word stride", "conflict degree", "cycles/elt", "replays/warp", "slowdown vs stride 1")
		},
		func(cfg Config) []Point {
			n := cfg.N
			strides := []uint64{1, 2, 4, 8, 16, 32}
			if cfg.Quick {
				strides = []uint64{1, 8, 32}
			}
			var pts []Point
			for _, s := range strides {
				s := s
				pts = append(pts, newPoint(fmt.Sprintf("stride=%d", s), func(ctx context.Context, cfg Config) (tableRows, error) {
					m := smMachine()
					run := func(stride uint64) (sim.Result, error) {
						// Each processor is one warp scheduler replaying the
						// same strided stream; addresses are in bytes, words
						// are 4 bytes (bank = addr/4 mod 32).
						lanes := n / m.Procs
						addrs := make([]uint64, lanes)
						for i := range addrs {
							addrs[i] = uint64(i) * stride * 4
						}
						per := make([][]uint64, m.Procs)
						for p := range per {
							per[p] = addrs
						}
						return cfg.RunSim(ctx, sim.Config{Machine: m,
							Bank: sim.BankConfig{Discipline: sim.GPUShared}}, core.Pattern{PerProc: per})
					}
					r, err := run(s)
					if err != nil {
						return nil, err
					}
					base, err := run(1) // memoized across points by the cache
					if err != nil {
						return nil, err
					}
					warps := float64(n) / 32
					return oneRow(s, gcd(int(s), 32),
						core.CyclesPerElement(r.Cycles, n, m.Procs),
						float64(r.WarpReplays)/warps,
						r.Cycles/base.Cycles), nil
				}))
			}
			return pts
		})
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
