package experiments

import (
	"context"
	"fmt"

	"dxbsp/internal/algos"
	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
	"dxbsp/internal/tablefmt"
	"dxbsp/internal/vector"
)

// This file holds the extension experiments beyond the paper's own
// figures: the refinements and future-work items the paper names
// explicitly (cached banks [HS93], multiprefix [She93], list ranking
// [RM94], the LogP extension) plus a whole-catalogue validation sweep.

// expX1 validates the model against the simulator for every machine in
// the Table 1 catalogue, not just the two experiment machines: a random
// pattern and a contended pattern per machine, with sim/model ratios. One
// point per machine; the per-machine random streams split off in
// catalogue order.
func expX1() Experiment {
	return sweep("X1", "Extension: model validation across the whole catalogue",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X1: model validation across the catalogue (n=%d)", cfg.N),
				"machine", "random sim/model", "contended sim/model")
		},
		func(cfg Config) []Point {
			n := cfg.N
			g := rng.New(cfg.Seed)
			var pts []Point
			for _, m := range core.Catalogue() {
				m := m
				m.L = 0
				sub := g.Split()
				pts = append(pts, newPoint(m.Name, func(ctx context.Context, cfg Config) (tableRows, error) {
					rand := patterns.Uniform(n, 1<<34, sub.Clone())
					k := n / 64
					cont := patterns.Contention(n, k, 1)
					ratio := func(addrs []uint64) (float64, error) {
						pt := core.NewPattern(addrs, m.Procs)
						loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
						r, err := cfg.RunSim(ctx, sim.Config{Machine: m}, pt)
						if err != nil {
							return 0, err
						}
						return r.Cycles / m.PredictDXBSP(loads), nil
					}
					rr, err := ratio(rand)
					if err != nil {
						return nil, err
					}
					rc, err := ratio(cont)
					if err != nil {
						return nil, err
					}
					return oneRow(m.Name, rr, rc), nil
				}))
			}
			return pts
		})
}

// expX2 measures the cached-DRAM bank organization of Hsu and Smith
// [HS93] — the refinement the paper cites but does not model — on the
// contention sweep of F2: a row buffer turns repeated hits on one location
// from d-cycle services into 1-cycle services, collapsing the contention
// penalty the (d,x)-BSP charges.
func expX2() Experiment {
	return sweep("X2", "Extension: cached-DRAM banks [HS93] vs contention",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X2: cached banks [HS93] on the contention sweep (n=%d, J90, cycles/element)", cfg.N),
				"k", "uncached sim", "cached sim", "row hit rate", "(d,x)-BSP (uncached)")
		},
		func(cfg Config) []Point {
			n := cfg.N
			step := 8
			if cfg.Quick {
				step = 64
			}
			var pts []Point
			for k := 1; k <= n; k *= step {
				k := k
				pts = append(pts, newPoint(fmt.Sprintf("k=%d", k), func(ctx context.Context, cfg Config) (tableRows, error) {
					m := core.J90()
					a := patterns.Contention(n, k, 1)
					pt := core.NewPattern(a, m.Procs)
					loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
					plain, err := cfg.RunSim(ctx, sim.Config{Machine: m}, pt)
					if err != nil {
						return nil, err
					}
					cached, err := cfg.RunSim(ctx, sim.Config{Machine: m, Bank: sim.BankConfig{CacheLines: 4}}, pt)
					if err != nil {
						return nil, err
					}
					return oneRow(k,
						core.CyclesPerElement(plain.Cycles, n, m.Procs),
						core.CyclesPerElement(cached.Cycles, n, m.Procs),
						float64(cached.RowHits)/float64(n),
						core.CyclesPerElement(m.PredictDXBSP(loads), n, m.Procs)), nil
				}))
			}
			return pts
		})
}

// expX3 runs the multiprefix operation [She93] under increasing key skew:
// the direct (privatized-bucket) formulation against the sort-based one.
// Skew erodes the direct variant's advantage exactly as the contention
// accounting predicts. The value array is drawn once and shared read-only;
// the per-round key arrays reseed from cfg.Seed^round.
func expX3() Experiment {
	const numKeys = 64
	return sweep("X3", "Extension: multiprefix [She93] under key skew",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X3: multiprefix under key skew (n=%d, %d keys, J90, cycles)", cfg.N/2, numKeys),
				"skew (AND rounds)", "max key freq", "direct", "sorted", "sorted/direct")
		},
		func(cfg Config) []Point {
			n := cfg.N / 2
			g := rng.New(cfg.Seed)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(g.Intn(10))
			}
			rounds := []int{0, 1, 2, 4, 8}
			if cfg.Quick {
				rounds = []int{0, 2, 8}
			}
			var pts []Point
			for _, r := range rounds {
				r := r
				pts = append(pts, newPoint(fmt.Sprintf("rounds=%d", r), func(_ context.Context, cfg Config) (tableRows, error) {
					raw := patterns.Entropy(n, uint64(numKeys), r, rng.New(cfg.Seed^uint64(r)))
					keys := make([]int64, n)
					for i, v := range raw {
						keys[i] = int64(v)
					}
					freq := patterns.MaxContention(raw)

					vmD := vector.New(core.J90())
					algos.MultiprefixDirect(vmD, keys, vals, numKeys)
					vmS := vector.New(core.J90())
					algos.MultiprefixSorted(vmS, keys, vals, numKeys)
					return oneRow(r, freq, vmD.Cycles(), vmS.Cycles(), vmS.Cycles()/vmD.Cycles()), nil
				}))
			}
			return pts
		})
}

// expX4 runs Wyllie list ranking [RM94]: per-round running contention and
// the cycle cost of the geometric pile-up onto the tail, against a
// BSP-style prediction that cannot see it. The rounds of one run are
// sequentially dependent, so this is a single-point experiment.
func expX4() Experiment {
	return single("X4", "Extension: Wyllie list ranking [RM94] contention pile-up", func(cfg Config) (Renderable, error) {
		n := cfg.N / 2
		m := core.J90()
		vm := vector.New(m)
		perm := rng.New(cfg.Seed).Perm(n)
		p64 := make([]int64, n)
		for i, v := range perm {
			p64[i] = int64(v)
		}
		next := algos.MakeList(p64)

		res := algos.ListRankWyllie(vm, next)
		t := tablefmt.New(fmt.Sprintf("X4: Wyllie list ranking (n=%d, J90)", n),
			"round", "running max contention", "contention/n")
		for r, c := range res.RoundContention {
			t.AddRow(r+1, c, float64(c)/float64(n))
		}
		return t, nil
	})
}

// expX5 demonstrates the (d,x)-LogP extension the paper says is
// straightforward: the same contention sweep as F2 predicted by plain
// LogP and by (d,x)-LogP, against simulation. The plain simulations are
// shared with X2 point-for-point, which the runner's memo cache exploits.
func expX5() Experiment {
	return sweep("X5", "Extension: (d,x)-LogP vs LogP predictions",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X5: (d,x)-LogP vs LogP on the contention sweep (n=%d, o=0.5)", cfg.N),
				"k", "sim", "(d,x)-LogP", "LogP")
		},
		func(cfg Config) []Point {
			n := cfg.N
			step := 8
			if cfg.Quick {
				step = 64
			}
			var pts []Point
			for k := 1; k <= n; k *= step {
				k := k
				pts = append(pts, newPoint(fmt.Sprintf("k=%d", k), func(ctx context.Context, cfg Config) (tableRows, error) {
					m := core.J90()
					lp := core.FromMachine(m, 0.5) // modest per-message overhead
					a := patterns.Contention(n, k, 1)
					pt := core.NewPattern(a, m.Procs)
					loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
					r, err := cfg.RunSim(ctx, sim.Config{Machine: m}, pt)
					if err != nil {
						return nil, err
					}
					return oneRow(k,
						core.CyclesPerElement(r.Cycles, n, m.Procs),
						core.CyclesPerElement(lp.BulkCostProfile(loads), n, m.Procs),
						core.CyclesPerElement(lp.LogPBulkCost(loads.MaxH), n, m.Procs)), nil
				}))
			}
			return pts
		})
}

// expX6 sweeps key width for merging two sorted sequences: the
// cross-ranking (replicated binary search) merge does lg(n) levels
// regardless of key width, while the radix-sort merge pays one pass per
// digit — so the winner crosses over as keys widen. Merging is the last
// algorithm on the paper's "currently looking into" list. Three generator
// splits per point, taken in sweep order.
func expX6() Experiment {
	return sweep("X6", "Extension: merge crossover vs key width",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X6: merge of two %d-element runs vs key width (J90, cycles)", cfg.N/8),
				"key bits", "cross-rank merge (QRQW)", "radix-sort merge (EREW)", "EREW/QRQW")
		},
		func(cfg Config) []Point {
			n := cfg.N / 8
			g := rng.New(cfg.Seed)
			bitsList := []uint{11, 22, 33, 44, 60}
			if cfg.Quick {
				bitsList = []uint{11, 44}
			}
			var pts []Point
			for _, bits := range bitsList {
				bits := bits
				spA, spB, spM := g.Split(), g.Split(), g.Split()
				pts = append(pts, newPoint(fmt.Sprintf("bits=%d", bits), func(context.Context, Config) (tableRows, error) {
					maxKey := int64(1)<<bits - 1
					a := sortedKeys(n, maxKey, spA.Clone())
					b := sortedKeys(n, maxKey, spB.Clone())
					vmQ := newJ90VM()
					algos.MergeQRQW(vmQ, a, b, 256, spM.Clone())
					vmE := newJ90VM()
					algos.MergeEREW(vmE, a, b, maxKey)
					return oneRow(bits, vmQ.Cycles(), vmE.Cycles(), vmE.Cycles()/vmQ.Cycles()), nil
				}))
			}
			return pts
		})
}

func sortedKeys(n int, maxKey int64, g *rng.Xoshiro256) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(g.Uint64n(uint64(maxKey) + 1))
	}
	sortInt64sQuick(xs)
	return xs
}

// sortInt64sQuick is an in-place quicksort (the insertion sort used for
// small fixtures elsewhere is quadratic and too slow here).
func sortInt64sQuick(xs []int64) {
	if len(xs) < 16 {
		sortInt64s(xs)
		return
	}
	pivot := xs[len(xs)/2]
	lo, hi := 0, len(xs)-1
	for lo <= hi {
		for xs[lo] < pivot {
			lo++
		}
		for xs[hi] > pivot {
			hi--
		}
		if lo <= hi {
			xs[lo], xs[hi] = xs[hi], xs[lo]
			lo++
			hi--
		}
	}
	sortInt64sQuick(xs[:hi+1])
	sortInt64sQuick(xs[lo:])
}

// expX7 measures broadcasting one value to n readers: the naive broadcast
// is a contention-n gather; replicating the value across p slots first
// (the same idea as the replicated search tree) removes it.
func expX7() Experiment {
	return sweep("X7", "Extension: naive vs replicated broadcast",
		func(Config) *tablefmt.Table {
			return tablefmt.New("X7: broadcast cost, naive vs replicated (J90, cycles)",
				"n readers", "naive", "replicated", "naive/replicated")
		},
		func(cfg Config) []Point {
			sizes := []int{1 << 10, 1 << 13, 1 << 16}
			if cfg.Quick {
				sizes = []int{1 << 8, 1 << 11}
			}
			var pts []Point
			for _, n := range sizes {
				n := n
				pts = append(pts, newPoint(fmt.Sprintf("n=%d", n), func(context.Context, Config) (tableRows, error) {
					vmN := newJ90VM()
					src := vmN.AllocInit([]int64{42})
					dst := vmN.Alloc(n)
					vmN.Reset()
					vmN.Broadcast(dst, src, 0)

					vmR := newJ90VM()
					src2 := vmR.AllocInit([]int64{42})
					dst2 := vmR.Alloc(n)
					scratch := vmR.Alloc(vmR.Mach().Procs)
					vmR.Reset()
					vmR.ReplicatedBroadcast(dst2, src2, 0, scratch)

					return oneRow(n, vmN.Cycles(), vmR.Cycles(), vmN.Cycles()/vmR.Cycles()), nil
				}))
			}
			return pts
		})
}

// expX8 sweeps the Zipf exponent of the reference distribution: the
// smooth knob between the paper's uniform (Experiment 2) and iterated-AND
// (Experiment 3) families, with predictions alongside.
func expX8() Experiment {
	return sweep("X8", "Extension: Zipf reference distributions",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X8: Zipf(s) reference distributions (n=%d, J90, cycles/element)", cfg.N),
				"s", "contention κ", "sim", "(d,x)-BSP", "BSP")
		},
		func(cfg Config) []Point {
			exps := []float64{0, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0}
			if cfg.Quick {
				exps = []float64{0, 1.0, 2.0}
			}
			var pts []Point
			for _, s := range exps {
				s := s
				pts = append(pts, newPoint(fmt.Sprintf("s=%g", s), func(ctx context.Context, cfg Config) (tableRows, error) {
					n := cfg.N
					m := core.J90()
					a := patterns.Zipf(n, n, s, rng.New(cfg.Seed))
					kappa := patterns.MaxContention(a)
					simC, dx, bsp, _, err := runScatter(ctx, cfg, m, a)
					if err != nil {
						return nil, err
					}
					return oneRow(s, kappa,
						core.CyclesPerElement(simC, n, m.Procs),
						core.CyclesPerElement(dx, n, m.Procs),
						core.CyclesPerElement(bsp, n, m.Procs)), nil
				}))
			}
			return pts
		})
}

// expX9 runs breadth-first search over graph families with rising degree
// skew and reports the traversal's cost and contention — the paper's
// contention framework applied to the canonical frontier algorithm. One
// point per graph family.
func expX9() Experiment {
	return sweep("X9", "Extension: BFS across graph families",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X9: BFS across graph families (J90, n=%d vertices)", cfg.N/4),
				"graph", "levels", "max degree", "cycles", "max contention")
		},
		func(cfg Config) []Point {
			n := cfg.N / 4
			graphs := []struct {
				name string
				mk   func() *algos.Graph
				src  int64
			}{
				{"path", func() *algos.Graph { return algos.PathGraph(n) }, 0},
				{"random m=2n", func() *algos.Graph { return algos.RandomGraph(n, 2*n, rng.New(cfg.Seed)) }, 0},
				{"random m=8n", func() *algos.Graph { return algos.RandomGraph(n, 8*n, rng.New(cfg.Seed)) }, 0},
				{"star (from leaf)", func() *algos.Graph { return algos.StarGraph(n) }, 1},
			}
			var pts []Point
			for _, gr := range graphs {
				gr := gr
				pts = append(pts, newPoint(gr.name, func(context.Context, Config) (tableRows, error) {
					a := algos.BuildAdj(gr.mk())
					vm := newJ90VM()
					res := algos.BFS(vm, a, gr.src)
					return oneRow(gr.name, res.Levels, a.MaxDegree(), vm.Cycles(), res.MaxContention), nil
				}))
			}
			return pts
		})
}
