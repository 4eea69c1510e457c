package dxbsp

// This file is the benchmark harness: one testing.B benchmark per table
// and figure of the paper (regenerating the experiment end to end), plus
// the ablation benches DESIGN.md calls out and microbenchmarks of the
// load-bearing primitives. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches report the experiment's headline number as a
// custom metric so regressions in *shape* (not just speed) are visible.

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dxbsp/internal/algos"
	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/patterns"
	"dxbsp/internal/qrqw"
	"dxbsp/internal/rng"
	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
	"dxbsp/internal/sweep"
	"dxbsp/internal/vector"
)

// benchConfig keeps the per-iteration cost of the experiment benches sane
// while staying large enough to show the paper's shapes.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.N = 1 << 14
	return cfg
}

func runExperiment(b *testing.B, id string) {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.MustRun(cfg).Render(io.Discard)
	}
}

// --- One bench per table -------------------------------------------------

func BenchmarkTableT1(b *testing.B) { runExperiment(b, "T1") }
func BenchmarkTableT2(b *testing.B) { runExperiment(b, "T2") }
func BenchmarkTableT3(b *testing.B) { runExperiment(b, "T3") }

// --- One bench per figure ------------------------------------------------

func BenchmarkFigF1(b *testing.B)  { runExperiment(b, "F1") }
func BenchmarkFigF2(b *testing.B)  { runExperiment(b, "F2") }
func BenchmarkFigF3(b *testing.B)  { runExperiment(b, "F3") }
func BenchmarkFigF4(b *testing.B)  { runExperiment(b, "F4") }
func BenchmarkFigF5(b *testing.B)  { runExperiment(b, "F5") }
func BenchmarkFigF6(b *testing.B)  { runExperiment(b, "F6") }
func BenchmarkFigF7(b *testing.B)  { runExperiment(b, "F7") }
func BenchmarkFigF8(b *testing.B)  { runExperiment(b, "F8") }
func BenchmarkFigF9(b *testing.B)  { runExperiment(b, "F9") }
func BenchmarkFigF10(b *testing.B) { runExperiment(b, "F10") }
func BenchmarkFigF11(b *testing.B) { runExperiment(b, "F11") }
func BenchmarkFigF12(b *testing.B) { runExperiment(b, "F12") }
func BenchmarkFigF13(b *testing.B) { runExperiment(b, "F13") }

// --- Extension experiments (paper's cited refinements and future work) ----

func BenchmarkExtX1CatalogueValidation(b *testing.B) { runExperiment(b, "X1") }
func BenchmarkExtX2CachedBanks(b *testing.B)         { runExperiment(b, "X2") }
func BenchmarkExtX3Multiprefix(b *testing.B)         { runExperiment(b, "X3") }
func BenchmarkExtX4ListRanking(b *testing.B)         { runExperiment(b, "X4") }
func BenchmarkExtX5DXLogP(b *testing.B)              { runExperiment(b, "X5") }
func BenchmarkExtX6MergeCrossover(b *testing.B)      { runExperiment(b, "X6") }
func BenchmarkExtX7Broadcast(b *testing.B)           { runExperiment(b, "X7") }
func BenchmarkExtX8Zipf(b *testing.B)                { runExperiment(b, "X8") }
func BenchmarkExtX9BFS(b *testing.B)                 { runExperiment(b, "X9") }
func BenchmarkExtX10PipelineHash(b *testing.B)       { runExperiment(b, "X10") }
func BenchmarkExtX11TraceReplay(b *testing.B)        { runExperiment(b, "X11") }
func BenchmarkExtX12ErewVsQrqw(b *testing.B)         { runExperiment(b, "X12") }
func BenchmarkExtX13LatencyHiding(b *testing.B)      { runExperiment(b, "X13") }

// --- Ablation benches (DESIGN.md §5) --------------------------------------

// BenchmarkAblationSimVsModel quantifies the gap between the event-driven
// queueing simulation and the closed-form (d,x)-BSP cost on a random
// pattern: the "sim/model" metric should hover near 1.
func BenchmarkAblationSimVsModel(b *testing.B) {
	m := core.J90()
	addrs := patterns.Uniform(1<<14, 1<<30, rng.New(1))
	pt := core.NewPattern(addrs, m.Procs)
	loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
	pred := m.PredictDXBSP(loads)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(sim.Config{Machine: m}, pt)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Cycles / pred
	}
	b.ReportMetric(ratio, "sim/model")
}

// BenchmarkAblationCombining measures what combining at the banks (which
// the paper's machines do not have) would buy on a maximum-contention
// pattern.
func BenchmarkAblationCombining(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.AllSame(1<<12, 3), m.Procs)
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err := sim.Run(sim.Config{Machine: m}, pt)
		if err != nil {
			b.Fatal(err)
		}
		comb, err := sim.Run(sim.Config{Machine: m, Combining: true}, pt)
		if err != nil {
			b.Fatal(err)
		}
		speedup = plain.Cycles / comb.Cycles
	}
	b.ReportMetric(speedup, "combining-speedup")
}

// BenchmarkAblationOrder measures the effect of injection order: the same
// multiset of addresses issued in sorted (bank-bursty) versus shuffled
// order.
func BenchmarkAblationOrder(b *testing.B) {
	m := core.J90()
	g := rng.New(5)
	sorted := patterns.Strided(1<<14, 0, uint64(m.Banks)/8) // bursts per bank
	shuffled := patterns.Shuffle(sorted, g)
	ptSorted := core.NewPattern(sorted, m.Procs)
	ptShuffled := core.NewPattern(shuffled, m.Procs)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := sim.Run(sim.Config{Machine: m}, ptSorted)
		if err != nil {
			b.Fatal(err)
		}
		rr, err := sim.Run(sim.Config{Machine: m}, ptShuffled)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rs.Cycles / rr.Cycles
	}
	b.ReportMetric(ratio, "sorted/shuffled")
}

// BenchmarkAblationWindow measures closed-loop issue (windowed
// outstanding requests) against the open-loop vector pipeline.
func BenchmarkAblationWindow(b *testing.B) {
	m := core.J90()
	m.L = 50
	pt := core.NewPattern(patterns.Uniform(1<<13, 1<<30, rng.New(9)), m.Procs)
	var slowdown float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open, err := sim.Run(sim.Config{Machine: m}, pt)
		if err != nil {
			b.Fatal(err)
		}
		win, err := sim.Run(sim.Config{Machine: m, Window: 4}, pt)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = win.Cycles / open.Cycles
	}
	b.ReportMetric(slowdown, "window4/open")
}

// --- Microbenchmarks of the load-bearing primitives -----------------------

// BenchmarkSimScatter64K times sim.Run on the paper's open-loop scatter,
// which Run serves on the lockstep walk.
func BenchmarkSimScatter64K(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Machine: m}, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KEvents is BenchmarkSimScatter64K on the event
// engine (sim.NewEngine().Run), so the event loop's open-loop fast path
// stays tracked now that Run routes this config to the lockstep walk.
func BenchmarkSimScatter64KEvents(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	eng := sim.NewEngine()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, sim.Config{Machine: m}, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KWindowed exercises the closed-loop path: Run
// serves it on the lockstep walk, which stops at the first window stall
// almost at once and finishes in the replay, a path the open-loop
// BenchmarkSimScatter64K skips — regressions in either path stay
// visible.
func BenchmarkSimScatter64KWindowed(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Machine: m, Window: 8}, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KWindowedP4096 is a windowed scatter at p = 4096
// (x = 8, d = 14, Window 2): almost every request window-stalls, so Run
// spends the run in the lockstep replay, whose per-event cost grows
// with log p. It tracks the large-p end of that replay.
func BenchmarkSimScatter64KWindowedP4096(b *testing.B) {
	const p = 4096
	m := core.Machine{Name: "wide", Procs: p, Banks: 8 * p, D: 14, G: 1, L: 8}
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), p)
	cfg := sim.Config{Machine: m, Window: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KProbed is BenchmarkSimScatter64K with the
// runner's metrics observer attached, so BENCH_sim.json tracks the
// probes-ON overhead (per-run collector allocation plus one hook call
// per queue event) next to the probes-off baseline, whose allocs/op must
// stay at the no-probe number.
func BenchmarkSimScatter64KProbed(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	obs := runner.NewObserver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Machine: m, Probe: obs}, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KSections adds the network sections of the
// paper's version (c): Run serves the open-loop config on the lockstep
// walk, with each request passing its section and then its bank, two
// constant-service FIFO stages.
func BenchmarkSimScatter64KSections(b *testing.B) {
	m := core.J90()
	m.Sections = 8
	m.SectionGap = 0.25
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Machine: m, UseSections: true}, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KDRAM runs the same scatter under the DRAM
// discipline with bank groups, covering the row-buffer lookup and the
// group-bus gating on the hot path.
func BenchmarkSimScatter64KDRAM(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	cfg := sim.Config{Machine: m,
		Bank: sim.BankConfig{Discipline: sim.DRAM, Groups: 64, GroupGap: 0.5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KRegulated covers the per-bank window accounting
// (epoch rollover, budget checks, deferred starts) at default regulation.
func BenchmarkSimScatter64KRegulated(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	cfg := sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.Regulated}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KGPU covers the warp-synchronous issue path: a
// processor issues its next warp only when the last lane of the current
// one returns, so Run serves it on the lockstep walk's warp replay, one
// tournament-tree event per warp inject and per warp release.
func BenchmarkSimScatter64KGPU(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	cfg := sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.GPUShared}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScatter64KRowCache is X2's cached-bank config (FIFO with
// four open rows per bank, the HS93 ablation) on the same scatter. Row
// caches still run on the event engine; this is the baseline for moving
// them to the lockstep walk.
func BenchmarkSimScatter64KRowCache(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(2)), m.Procs)
	cfg := sim.Config{Machine: m, Bank: sim.BankConfig{CacheLines: 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfile64K times the full compact profile (load pass plus the
// location pass, on its sort side: the 2^30 span is sparse);
// BenchmarkLoads64K times the load pass alone on the same pattern, which
// is all the cost law needs.
func BenchmarkProfile64K(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(3)), m.Procs)
	bm := core.InterleaveMap{Banks: m.Banks}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeProfileCompact(pt, bm)
	}
}

func BenchmarkLoads64K(b *testing.B) {
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<16, 1<<30, rng.New(3)), m.Procs)
	bm := core.InterleaveMap{Banks: m.Banks}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeLoads(pt, bm)
	}
}

// BenchmarkVectorGather64K times one warm Analytic gather of 64K dense
// indices on the J90: the irregular superstep the algorithm studies
// charge, profiled on the location pass's dense side. It allocates
// nothing.
func BenchmarkVectorGather64K(b *testing.B) {
	const n = 1 << 16
	vm := vector.New(core.J90())
	src, dst, idx := vm.Alloc(n), vm.Alloc(n), vm.Alloc(n)
	g := rng.New(3)
	for i := range idx.Data {
		idx.Data[i] = int64(g.Intn(n))
	}
	vm.Gather(dst, src, idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Gather(dst, src, idx)
	}
}

func BenchmarkHashLinearBulk(b *testing.B)    { benchHashBulk(b, hashfn.NewLinear(9, rng.New(1))) }
func BenchmarkHashQuadraticBulk(b *testing.B) { benchHashBulk(b, hashfn.NewQuadratic(9, rng.New(1))) }
func BenchmarkHashCubicBulk(b *testing.B)     { benchHashBulk(b, hashfn.NewCubic(9, rng.New(1))) }

func benchHashBulk(b *testing.B, f hashfn.Func) {
	xs := make([]uint64, 1<<14)
	g := rng.New(2)
	for i := range xs {
		xs[i] = g.Uint64()
	}
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			sink ^= f.Hash(x)
		}
	}
	_ = sink
}

func BenchmarkRadixSort16K(b *testing.B) {
	g := rng.New(4)
	data := make([]int64, 1<<14)
	for i := range data {
		data[i] = int64(g.Intn(1 << 22))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := vector.New(core.J90())
		v := vm.AllocInit(data)
		algos.RadixSort(vm, v, (1<<22)-1, 11)
	}
}

func BenchmarkQRQWEmulateStep(b *testing.B) {
	m := core.Machine{Name: "emu", Procs: 8, Banks: 512, D: 8, G: 1, L: 64}
	prog := qrqw.RandomProgram(1<<13, 1, 1<<30, rng.New(6))
	bm := hashfn.Map{F: hashfn.NewLinear(9, rng.New(7))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qrqw.Emulate(prog, m, bm, qrqw.Analytic); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeQRQW(b *testing.B) {
	g := rng.New(10)
	mk := func(seed uint64) []int64 {
		gg := rng.New(seed)
		xs := make([]int64, 1<<13)
		for i := range xs {
			xs[i] = int64(gg.Uint64n(1 << 40))
		}
		// insertion-free sort via stdlib-free quick shuffle is overkill;
		// generate sorted directly by prefix sums of small gaps.
		acc := int64(0)
		for i := range xs {
			acc += int64(gg.Intn(1 << 8))
			xs[i] = acc
		}
		return xs
	}
	a, bb := mk(1), mk(2)
	_ = g
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := vector.New(core.J90())
		algos.MergeQRQW(vm, a, bb, 128, rng.New(3))
	}
}

func BenchmarkMultiprefixDirect(b *testing.B) {
	g := rng.New(11)
	n := 1 << 14
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(g.Intn(256))
		vals[i] = int64(g.Intn(8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := vector.New(core.J90())
		algos.MultiprefixDirect(vm, keys, vals, 256)
	}
}

func BenchmarkListRankWyllie(b *testing.B) {
	g := rng.New(12)
	perm := make([]int64, 1<<12)
	for i, v := range g.Perm(len(perm)) {
		perm[i] = int64(v)
	}
	next := algos.MakeList(perm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := vector.New(core.J90())
		algos.ListRankWyllie(vm, next)
	}
}

func BenchmarkBFSRandomGraph(b *testing.B) {
	gr := algos.RandomGraph(1<<12, 1<<14, rng.New(13))
	adj := algos.BuildAdj(gr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := vector.New(core.J90())
		algos.BFS(vm, adj, 0)
	}
}

func BenchmarkSimReferenceCrossCheck(b *testing.B) {
	m := core.Machine{Name: "xv", Procs: 4, Banks: 32, D: 5, G: 1, L: 8}
	pt := core.NewPattern(patterns.Uniform(256, 256, rng.New(14)), m.Procs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunReference(sim.Config{Machine: m}, pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	gr := algos.RandomGraph(1<<12, 1<<13, rng.New(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := vector.New(core.J90())
		algos.ConnectedComponents(vm, gr, rng.New(9))
	}
}

// --- Distributed sweep ----------------------------------------------------

// benchSweepExpansion measures the wall clock of the expansion study (F6)
// executed as a `ways`-way static shard sweep: each shard runs on its own
// single-worker runner with its own journal (the process-per-shard shape,
// compressed into goroutines), then the shard journals merge. 1-way vs
// 4-way is the headline sweep wall-clock entry in BENCH_history.json.
// At quick scale the comparison is skew-bound — F6's largest expansion
// point dominates the wall clock, so 4-way ≈ 1-way; the entry records
// the coordination overhead staying in the noise, and the speedup story
// belongs to paper-scale grids where no single point dominates.
func benchSweepExpansion(b *testing.B, ways int) {
	cfg := benchConfig()
	e, ok := experiments.Lookup("F6")
	if !ok {
		b.Fatal("unknown experiment F6")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		var wg sync.WaitGroup
		for s := 0; s < ways; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				r := &runner.Runner{Parallel: 1, Cache: runner.NewCache()}
				j, err := runner.OpenJournalFile(dir, runner.ShardJournalName(s, ways), false, nil)
				if err != nil {
					b.Error(err)
					return
				}
				defer j.Close()
				r.Cache.Journal = j
				sh := sweep.Shard{Index: s, Count: ways}
				if _, err := r.RunExperiment(context.Background(), sweep.Apply(e, sh), cfg); err != nil {
					b.Error(err)
				}
			}(s)
		}
		wg.Wait()
		if _, err := sweep.Merge(dir, io.Discard); err != nil {
			b.Error(err)
		}
	}
}

func BenchmarkSweepExpansion1Way(b *testing.B) { benchSweepExpansion(b, 1) }
func BenchmarkSweepExpansion4Way(b *testing.B) { benchSweepExpansion(b, 4) }

// --- Lockstep expansion grid ---------------------------------------------

// BenchmarkBatchExpansion is the headline number for the lockstep walk:
// the F6-shaped expansion grid (x × d, all FIFO, so every config takes
// the lockstep walk) run through sim.Run, one config after another, per
// iteration. The event engine (sim.NewEngine().Run — sim.Run routes
// these configs to the lockstep walk itself) runs the same configs once
// untimed to report the speedup. Two custom metrics: points/sec
// (simulation points per wall-clock second, single goroutine — "per
// core") and xscalar (event-engine time per point / sim.Run time per
// point). CI gates xscalar >= 3.
func BenchmarkBatchExpansion(b *testing.B) { benchExpansionGrid(b, 0) }

// BenchmarkBatchExpansionWindowed is the headline number for windowed
// lockstep runs: the same expansion grid as BenchmarkBatchExpansion but
// closed-loop (Window 8, the F2/F3-style x-sweep shape), so every config
// walks in lockstep until its window fills, then finishes in the
// replay. Metrics as above; CI gates xscalar >= 2 (the replay does more
// work per request than the walk, so the win is smaller than open
// loop's).
func BenchmarkBatchExpansionWindowed(b *testing.B) { benchExpansionGrid(b, 8) }

func benchExpansionGrid(b *testing.B, window int) {
	var cfgs []sim.Config
	for _, x := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		for _, d := range []float64{6, 14} {
			cfgs = append(cfgs, sim.Config{
				Machine: core.Machine{Name: "bench", Procs: 8, Banks: 8 * x, D: d, G: 1, L: 4},
				Window:  window,
			})
		}
	}
	rg := rng.New(17)
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = rg.Uint64n(1 << 30)
	}
	pt := core.NewPattern(addrs, 8)
	ctx := context.Background()

	pass := func() {
		for _, cfg := range cfgs {
			if _, err := sim.Run(cfg, pt); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // warm the pooled arenas
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		pass()
	}
	runSec := time.Since(start).Seconds()
	b.StopTimer()

	scalarStart := time.Now()
	scalar := sim.NewEngine()
	for _, cfg := range cfgs {
		if _, err := scalar.Run(ctx, cfg, pt); err != nil {
			b.Fatal(err)
		}
	}
	scalarSec := time.Since(scalarStart).Seconds()

	points := float64(len(cfgs)) * float64(b.N)
	b.ReportMetric(points/runSec, "points/sec")
	scalarPerPoint := scalarSec / float64(len(cfgs))
	b.ReportMetric(scalarPerPoint/(runSec/points), "xscalar")
}

// --- Surrogate-routed huge grid -------------------------------------------

// BenchmarkSurrogateGrid is the headline number for the analytic
// surrogate: the F14 huge grid (p to 4096, x to 64, n = 64p) run end to
// end through the runner with auto routing — exactly the path
// `dxbench -surrogate auto -experiment F14` takes. Small cells still
// event-simulate (exactness is free there); the large rows, whose
// request counts cross DefaultSurrogateThreshold, answer in closed form.
// requests/sec counts the pattern elements handed to RunSim at the top
// of the runner stack, however each is served, per wall-clock second on
// one worker; a fresh runner per iteration keeps the cache from
// memoizing the work away. This entry joins BENCH_history.json but not
// the regression gate: the split between simulated and routed cells is
// a routing policy, not a hot path.
func BenchmarkSurrogateGrid(b *testing.B) {
	e, ok := experiments.Lookup("F14")
	if !ok {
		b.Fatal("unknown experiment F14")
	}
	var requests atomic.Int64
	runPoint := e.RunPoint
	e.RunPoint = func(ctx context.Context, cfg experiments.Config, p experiments.Point) (experiments.PointResult, error) {
		next := cfg
		cfg.Sim = experiments.SimRunnerFunc(func(ctx context.Context, sc sim.Config, pt core.Pattern) (sim.Result, error) {
			requests.Add(int64(pt.N()))
			return next.RunSim(ctx, sc, pt)
		})
		return runPoint(ctx, cfg, p)
	}
	cfg := experiments.DefaultConfig()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r := &runner.Runner{Parallel: 1, Cache: runner.NewCache(),
			Surrogate: runner.SurrogateRouting{Mode: runner.SurrogateAuto}}
		if _, err := r.RunExperiment(ctx, e, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(requests.Load())/time.Since(start).Seconds(), "requests/sec")
}
