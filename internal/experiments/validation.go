package experiments

import (
	"context"
	"fmt"
	"time"

	"dxbsp/internal/algos"
	"dxbsp/internal/core"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
	"dxbsp/internal/tablefmt"
	"dxbsp/internal/vector"
)

// This file regenerates the model-validation experiments: T2 (parameter
// calibration), T3 (hash costs), and figures F1–F5.

// runScatter simulates a scatter of the addresses on machine m and returns
// (simulated cycles, (d,x)-BSP prediction, BSP prediction, the pattern's
// bank loads). The simulation routes through cfg.RunSim so the runner's
// memo cache sees it.
func runScatter(ctx context.Context, cfg Config, m core.Machine, addrs []uint64) (simC, dx, bsp float64, loads core.Loads, err error) {
	pt := core.NewPattern(addrs, m.Procs)
	loads = core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
	r, err := cfg.RunSim(ctx, sim.Config{Machine: m}, pt)
	if err != nil {
		return 0, 0, 0, core.Loads{}, err
	}
	return r.Cycles, m.PredictDXBSP(loads), m.PredictBSP(loads), loads, nil
}

// expT2 calibrates the simulated machines the way the paper calibrated the
// Crays: microbenchmarks measure the effective gap (unit-stride scatter),
// the effective bank delay (single-bank scatter), and the contention
// crossover, and the table compares them with the configured parameters.
// One point per machine; the crossover search is inherently sequential so
// it stays inside the point.
func expT2() Experiment {
	return sweep("T2", "(d,x)-BSP parameters measured on the simulated machines",
		func(Config) *tablefmt.Table {
			return tablefmt.New("T2: measured (d,x)-BSP parameters of the simulated machines",
				"machine", "g (cfg)", "g (meas)", "d (cfg)", "d (meas)", "x", "crossover k* (pred)", "crossover k* (meas)")
		},
		func(cfg Config) []Point {
			var pts []Point
			for _, m := range []core.Machine{core.C90(), core.J90()} {
				m := m
				pts = append(pts, newPoint(m.Name, func(ctx context.Context, cfg Config) (tableRows, error) {
					n := cfg.N
					// Effective gap: unit-stride addresses, bandwidth bound.
					flat := patterns.Strided(n, 0, 1)
					simFlat, _, _, _, err := runScatter(ctx, cfg, m, flat)
					if err != nil {
						return nil, err
					}
					gMeas := simFlat * float64(m.Procs) / float64(n)

					// Effective delay: all requests to one location.
					hot := patterns.AllSame(n/8, 0)
					simHot, _, _, _, err := runScatter(ctx, cfg, m, hot)
					if err != nil {
						return nil, err
					}
					dMeas := simHot / float64(n/8)

					// Crossover: smallest k whose simulated time exceeds the
					// flat time by 50%.
					kMeas := 0
					for k := 1; k <= n; k *= 2 {
						a := patterns.Contention(n, k, 1)
						s, _, _, _, err := runScatter(ctx, cfg, m, a)
						if err != nil {
							return nil, err
						}
						if s > 1.5*simFlat {
							kMeas = k
							break
						}
					}
					return oneRow(m.Name, m.G, gMeas, m.D, dMeas, m.Expansion(),
						m.ContentionCrossover(n), kMeas), nil
				}))
			}
			return pts
		})
}

// expT3 reports the evaluation cost of the bank-mapping hash functions:
// the chime-count model (vector cycles per element, the paper's metric)
// and a measured Go ns/element for scale. The measured column is wall
// clock, so it is the one number in the suite that is not bit-reproducible
// across runs (the determinism tests mask it).
func expT3() Experiment {
	return sweep("T3", "Hash function evaluation cost",
		func(Config) *tablefmt.Table {
			return tablefmt.New("T3: hash function evaluation cost per element",
				"hash", "mults", "adds", "shifts", "model cycles/elem", "measured ns/elem")
		},
		func(cfg Config) []Point {
			g := rng.New(cfg.Seed)
			n := cfg.N
			xs := make([]uint64, n)
			for i := range xs {
				xs[i] = g.Uint64()
			}
			var pts []Point
			for _, f := range hashfn.Families(10, g) {
				f := f
				pts = append(pts, newPoint(f.Name(), func(context.Context, Config) (tableRows, error) {
					ops := f.Ops()
					start := time.Now()
					var sink uint64
					for _, x := range xs {
						sink ^= f.Hash(x)
					}
					elapsed := time.Since(start)
					_ = sink
					return oneRow(f.Name(), ops.Mul, ops.Add, ops.Shift, ops.Cost(),
						float64(elapsed.Nanoseconds())/float64(n)), nil
				}))
			}
			return pts
		})
}

// expF1 reproduces Figure 1: access patterns extracted from a run of the
// connected-components algorithm are replayed as scatters on the J90, and
// simulated time per element is compared against the BSP and (d,x)-BSP
// predictions as a function of the pattern's contention. The trace capture
// is one indivisible computation, so this is a single-point experiment.
func expF1() Experiment {
	return single("F1", "Predicted vs measured time, connected-components patterns", func(cfg Config) (Renderable, error) {
		m := core.J90()
		nVerts := cfg.N / 4
		gr := algos.RandomGraph(nVerts, nVerts*2, rng.New(cfg.Seed))

		// Capture the contention profile of every irregular superstep of the
		// algorithm, with simulated charging so "measured" is queueing-exact.
		type point struct {
			kappa    int
			simPer   float64
			dxPer    float64
			bspPer   float64
			requests int
		}
		var pts []point
		vm := vector.New(m, vector.WithMode(vector.Simulate),
			vector.WithTrace(func(op string, prof core.Profile, cycles float64) {
				if prof.N == 0 {
					return
				}
				pts = append(pts, point{
					kappa:    prof.MaxLoc,
					simPer:   core.CyclesPerElement(cycles, prof.N, m.Procs),
					dxPer:    core.CyclesPerElement(m.PredictDXBSP(prof.Loads), prof.N, m.Procs),
					bspPer:   core.CyclesPerElement(m.PredictBSP(prof.Loads), prof.N, m.Procs),
					requests: prof.N,
				})
			}))
		algos.ConnectedComponents(vm, gr, rng.New(cfg.Seed^0x55))

		// Bucket by contention and average, as the figure does.
		t := tablefmt.New("F1: connected-components patterns on the J90 (cycles/element)",
			"contention κ", "patterns", "measured (sim)", "(d,x)-BSP", "BSP")
		buckets := map[int][]point{}
		for _, p := range pts {
			k := 1
			for k < p.kappa {
				k *= 4
			}
			buckets[k] = append(buckets[k], p)
		}
		keys := make([]int, 0, len(buckets))
		for k := range buckets {
			keys = append(keys, k)
		}
		sortInts(keys)
		for _, k := range keys {
			var s, dx, bsp float64
			for _, p := range buckets[k] {
				s += p.simPer
				dx += p.dxPer
				bsp += p.bspPer
			}
			c := float64(len(buckets[k]))
			t.AddRow(k, len(buckets[k]), s/c, dx/c, bsp/c)
		}
		return t, nil
	})
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// expF2 reproduces Experiment 1: a scatter whose maximum location
// contention is exactly k, for k from 1 to n, on both simulated machines.
// One point per k.
func expF2() Experiment {
	return sweep("F2", "Experiment 1: scatter time vs location contention",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("F2: scatter with location contention k (n=%d, cycles/element)", cfg.N),
				"k", "J90 sim", "J90 (d,x)-BSP", "J90 BSP", "C90 sim", "C90 (d,x)-BSP")
		},
		func(cfg Config) []Point {
			n := cfg.N
			step := 4
			if cfg.Quick {
				step = 16
			}
			var pts []Point
			for k := 1; k <= n; k *= step {
				k := k
				pts = append(pts, newPoint(fmt.Sprintf("k=%d", k), func(ctx context.Context, cfg Config) (tableRows, error) {
					j90, c90 := core.J90(), core.C90()
					a := patterns.Contention(n, k, 1)
					js, jdx, jbsp, _, err := runScatter(ctx, cfg, j90, a)
					if err != nil {
						return nil, err
					}
					cs, cdx, _, _, err := runScatter(ctx, cfg, c90, a)
					if err != nil {
						return nil, err
					}
					p := func(c float64, m core.Machine) float64 { return core.CyclesPerElement(c, n, m.Procs) }
					return oneRow(k, p(js, j90), p(jdx, j90), p(jbsp, j90), p(cs, c90), p(cdx, c90)), nil
				}))
			}
			return pts
		})
}

// expF3 reproduces Experiment 2: scatters to addresses drawn uniformly
// from [0, m) for a range of m, exercising the balls-in-bins regime of the
// predictor. The per-size generators are split off the shared stream in
// sweep order at Points time, so the addresses are identical to the serial
// code no matter how points are scheduled.
func expF3() Experiment {
	return sweep("F3", "Experiment 2: scatter time vs random-pattern range",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("F3: scatter to uniform random addresses in [0,m) (n=%d, J90, cycles/element)", cfg.N),
				"m", "sim", "(d,x)-BSP", "BSP", "max bank load")
		},
		func(cfg Config) []Point {
			n := cfg.N
			g := rng.New(cfg.Seed)
			lo := 64
			if cfg.Quick {
				lo = 256
			}
			var pts []Point
			for sz := lo; sz <= n*16; sz *= 16 {
				sz := sz
				sub := g.Split()
				pts = append(pts, newPoint(fmt.Sprintf("m=%d", sz), func(ctx context.Context, cfg Config) (tableRows, error) {
					m := core.J90()
					a := patterns.Uniform(n, uint64(sz), sub.Clone())
					s, dx, bsp, loads, err := runScatter(ctx, cfg, m, a)
					if err != nil {
						return nil, err
					}
					return oneRow(sz,
						core.CyclesPerElement(s, n, m.Procs),
						core.CyclesPerElement(dx, n, m.Procs),
						core.CyclesPerElement(bsp, n, m.Procs),
						loads.MaxK), nil
				}))
			}
			return pts
		})
}

// expF4 reproduces Experiment 3: the Thearling–Smith entropy family,
// scatter time as the distribution degrades from uniform to constant. Each
// round seeds its own generator, so points are independent by construction.
func expF4() Experiment {
	return sweep("F4", "Experiment 3: scatter time on entropy distributions",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("F4: entropy-family scatters (n=%d, J90, cycles/element)", cfg.N),
				"AND rounds", "entropy (bits)", "contention κ", "sim", "(d,x)-BSP", "BSP")
		},
		func(cfg Config) []Point {
			rounds := []int{0, 1, 2, 3, 4, 6, 8, 10}
			if cfg.Quick {
				rounds = []int{0, 2, 6, 10}
			}
			var pts []Point
			for _, r := range rounds {
				r := r
				pts = append(pts, newPoint(fmt.Sprintf("rounds=%d", r), func(ctx context.Context, cfg Config) (tableRows, error) {
					n := cfg.N
					m := core.J90()
					a := patterns.Entropy(n, uint64(n), r, rng.New(cfg.Seed))
					h := patterns.MeasureEntropy(a)
					kappa := patterns.MaxContention(a)
					s, dx, bsp, _, err := runScatter(ctx, cfg, m, a)
					if err != nil {
						return nil, err
					}
					return oneRow(r, h, kappa,
						core.CyclesPerElement(s, n, m.Procs),
						core.CyclesPerElement(dx, n, m.Procs),
						core.CyclesPerElement(bsp, n, m.Procs)), nil
				}))
			}
			return pts
		})
}

// expF5 reproduces the multiprocessor placement experiment: the same
// random scatter with addresses (a) spread over all of memory, (b)
// interleaved across sections, and (c) confined to the banks of a single
// network section. Versions (a) and (b) match the model; version (c)
// exceeds it because of section congestion the (d,x)-BSP does not capture
// (the paper saw up to 2.5x). The three address arrays are drawn from one
// shared stream, so Points materializes them in order.
func expF5() Experiment {
	return sweep("F5", "Multiprocessor versions (a)/(b)/(c): section congestion",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("F5: placement versions on the J90 with section bandwidth (n=%d)", cfg.N),
				"version", "sim cycles/elem", "(d,x)-BSP", "sim/model ratio")
		},
		func(cfg Config) []Point {
			n := cfg.N
			m := core.J90()
			g := rng.New(cfg.Seed)
			banksPerSection := m.Banks / m.Sections

			mk := func(version string) []uint64 {
				a := make([]uint64, n)
				for i := range a {
					switch version {
					case "a": // spread across all banks
						a[i] = g.Uint64n(uint64(8 * m.Banks))
					case "b": // explicitly interleaved across sections
						sec := i % m.Sections
						off := g.Uint64n(uint64(8 * banksPerSection))
						a[i] = uint64(sec*banksPerSection) + (off/uint64(banksPerSection))*uint64(m.Banks) + off%uint64(banksPerSection)
					default: // "c": confined to section 0's banks
						off := g.Uint64n(uint64(8 * banksPerSection))
						a[i] = (off/uint64(banksPerSection))*uint64(m.Banks) + off%uint64(banksPerSection)
					}
				}
				return a
			}
			var pts []Point
			for _, v := range []string{"a", "b", "c"} {
				v := v
				a := mk(v)
				pts = append(pts, newPoint("("+v+")", func(ctx context.Context, cfg Config) (tableRows, error) {
					pt := core.NewPattern(a, m.Procs)
					loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
					r, err := cfg.RunSim(ctx, sim.Config{Machine: m, UseSections: true}, pt)
					if err != nil {
						return nil, err
					}
					dx := m.PredictDXBSP(loads)
					return oneRow("("+v+")",
						core.CyclesPerElement(r.Cycles, n, m.Procs),
						core.CyclesPerElement(dx, n, m.Procs),
						r.Cycles/dx), nil
				}))
			}
			return pts
		})
}
