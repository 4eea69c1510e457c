package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// batchGoldenConfigs builds the 128-config golden grid: eight
// discipline/window variants × expansion x ∈ {1,8} × d ∈ {2,6,14,30} ×
// g ∈ {1,2}, the lane axes the batch engine varies crossed with every
// lockstep class — open- and closed-loop FIFO (including a Window=1
// lane that stalls almost immediately), eligible and ineligible DRAM,
// windowed Regulated — plus the structural scalar fallbacks (multi-row
// DRAM, GPUShared), with ragged windows across the batch.
func batchGoldenConfigs() []Config {
	variants := []struct {
		bank   BankConfig
		window int
	}{
		{BankConfig{}, 0},
		{BankConfig{}, 4},
		{BankConfig{}, 1},
		{BankConfig{Discipline: DRAM, HitDelay: 1, MissDelay: 8, RowWords: 32}, 0},
		{BankConfig{Discipline: DRAM, HitDelay: 2, MissDelay: 12, RowWords: 16}, 6},
		{BankConfig{Discipline: DRAM, CacheLines: 2, HitDelay: 1, MissDelay: 8, RowWords: 32}, 0},
		{BankConfig{Discipline: Regulated, RegWindow: 16, RegBudget: 2}, 3},
		{BankConfig{Discipline: GPUShared, WarpSize: 8}, 0},
	}
	var cfgs []Config
	for _, v := range variants {
		for _, x := range []int{1, 8} {
			for _, d := range []float64{2, 6, 14, 30} {
				for _, g := range []float64{1, 2} {
					cfgs = append(cfgs, Config{
						Machine: core.Machine{Name: "golden", Procs: 8, Banks: 8 * x, D: d, G: g, L: 4},
						Bank:    v.bank,
						Window:  v.window,
					})
				}
			}
		}
	}
	return cfgs
}

func batchGoldenPattern() core.Pattern {
	rg := rng.New(99)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = rg.Uint64n(1 << 30)
	}
	return core.NewPattern(addrs, 8)
}

// TestBatchMatchesScalarGolden128 is the golden differential: one
// 128-lane batch across all four disciplines, every lane compared
// field-for-field against the event engine run alone. The oracle is
// NewEngine().Run, not Run: Run routes eligible lanes through the
// lockstep walk under test.
func TestBatchMatchesScalarGolden128(t *testing.T) {
	cfgs := batchGoldenConfigs()
	if len(cfgs) != 128 {
		t.Fatalf("golden grid has %d configs, want 128", len(cfgs))
	}
	pt := batchGoldenPattern()
	got, err := RunBatch(context.Background(), cfgs, pt)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("RunBatch returned %d results for %d lanes", len(got), len(cfgs))
	}
	fast := 0
	for i, cfg := range cfgs {
		if BatchEligible(cfg) {
			fast++
		}
		want, err := NewEngine().Run(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("lane %d scalar: %v", i, err)
		}
		if got[i] != want {
			t.Errorf("lane %d (disc=%s x=%d d=%g g=%g): batch %+v != scalar %+v",
				i, cfg.Bank.Discipline, cfg.Machine.Banks/8, cfg.Machine.D, cfg.Machine.G, got[i], want)
		}
	}
	if fast != 96 {
		t.Fatalf("golden grid has %d fast-path lanes, want 96 (six of the eight variants)", fast)
	}
}

// TestBatchMatchesScalarCustomMapAndShapes covers what the golden grid
// does not: non-power-of-two bank counts (the modulo map paths), a
// custom BankMap (the mapGeneric interface fallback), ragged and empty
// processor streams, NetDelay = 0, and a single-lane batch.
func TestBatchMatchesScalarCustomMapAndShapes(t *testing.T) {
	pt := core.Pattern{PerProc: [][]uint64{
		{0, 3, 6, 9, 12, 15, 18, 21},
		{1, 1, 1, 1},
		{},
		{7, 14, 21, 28, 35, 42},
	}}
	cfgs := []Config{
		{Machine: core.Machine{Name: "odd", Procs: 4, Banks: 12, D: 5, G: 1, L: 0}},
		{Machine: core.Machine{Name: "odd", Procs: 4, Banks: 7, D: 3, G: 2, L: 6}},
		{Machine: core.Machine{Name: "custom", Procs: 4, Banks: 9, D: 4, G: 1, L: 2},
			BankMap: xorMap{banks: 9}},
		{Machine: core.Machine{Name: "one", Procs: 5, Banks: 16, D: 2, G: 1, L: 0}},
	}
	got, err := RunBatch(context.Background(), cfgs, pt)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i, cfg := range cfgs {
		if !BatchEligible(cfg) {
			t.Fatalf("lane %d unexpectedly ineligible", i)
		}
		want, err := NewEngine().Run(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("lane %d scalar: %v", i, err)
		}
		if got[i] != want {
			t.Errorf("lane %d: batch %+v != scalar %+v", i, got[i], want)
		}
	}
}

// xorMap is a deliberately non-interleave BankMap: it must route through
// the mapGeneric interface path in both engines.
type xorMap struct{ banks int }

func (m xorMap) Bank(addr uint64) int { return int((addr ^ addr>>3) % uint64(m.banks)) }
func (m xorMap) NumBanks() int        { return m.banks }

// TestBatchLaneIsolation pins that lanes do not interact: the results of
// a batch's lanes are unchanged when a sibling lane is replaced with a
// completely different configuration, and an invalid lane fails the
// whole batch up front (all-or-nothing) while naming the lane.
func TestBatchLaneIsolation(t *testing.T) {
	pt := batchGoldenPattern()
	base := []Config{
		{Machine: core.Machine{Name: "a", Procs: 8, Banks: 16, D: 4, G: 1, L: 2}},
		{Machine: core.Machine{Name: "b", Procs: 8, Banks: 32, D: 8, G: 1, L: 2}},
		{Machine: core.Machine{Name: "c", Procs: 8, Banks: 64, D: 2, G: 2, L: 2}},
		{Machine: core.Machine{Name: "d", Procs: 8, Banks: 8, D: 30, G: 1, L: 2}},
	}
	before, err := RunBatch(context.Background(), base, pt)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}

	// Replace lane 1 with a wildly different config (different banks, a
	// scalar-fallback discipline); siblings must be bit-identical.
	mutated := append([]Config(nil), base...)
	mutated[1] = Config{
		Machine: core.Machine{Name: "x", Procs: 8, Banks: 8, D: 50, G: 1, L: 16},
		Bank:    BankConfig{Discipline: GPUShared, WarpSize: 4},
	}
	after, err := RunBatch(context.Background(), mutated, pt)
	if err != nil {
		t.Fatalf("RunBatch mutated: %v", err)
	}
	for _, i := range []int{0, 2, 3} {
		if before[i] != after[i] {
			t.Errorf("lane %d perturbed by sibling change: %+v vs %+v", i, before[i], after[i])
		}
	}

	// An invalid lane rejects the whole batch and names the lane.
	bad := append([]Config(nil), base...)
	bad[2].Window = -1
	if _, err := RunBatch(context.Background(), bad, pt); err == nil {
		t.Fatal("invalid lane accepted")
	} else if !strings.Contains(err.Error(), "lane 2") {
		t.Errorf("error does not name the offending lane: %v", err)
	}
}

// TestBatchCancellation pins that a cancelled context interrupts a batch
// mid-flight through the lockstep poll.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{
		{Machine: core.Machine{Name: "a", Procs: 8, Banks: 16, D: 4, G: 1, L: 2}},
		{Machine: core.Machine{Name: "b", Procs: 8, Banks: 32, D: 8, G: 1, L: 2}},
	}
	if _, err := RunBatch(ctx, cfgs, batchGoldenPattern()); err == nil {
		t.Fatal("cancelled batch returned no error")
	}
}

// TestBatchEngineReuseZeroAllocs pins the pooling contract: once an
// engine has seen a shape, re-running batches — including shrinking the
// lane count, growing it back, and lanes whose disciplines force the
// embedded scalar engine through per-lane discipline changes — allocates
// nothing.
func TestBatchEngineReuseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rg := rng.New(7)
	addrs := make([]uint64, 2048)
	for i := range addrs {
		addrs[i] = rg.Uint64n(1 << 30)
	}
	pt := core.NewPattern(addrs, 8)

	mk := func(banks int, d float64, bank BankConfig) Config {
		return Config{Machine: core.Machine{Name: "z", Procs: 8, Banks: banks, D: d, G: 1, L: 2}, Bank: bank}
	}
	mkw := func(banks int, d float64, window int, bank BankConfig) Config {
		c := mk(banks, d, bank)
		c.Window = window
		return c
	}
	// Three shapes cycled per run: full mixed batch, a shrunk all-FIFO
	// prefix, and the full batch again (grow). Lane slots keep a stable
	// discipline so the per-slot default-map caches stay warm, while the
	// embedded scalar engine flips FIFO→DRAM→Regulated→GPU within every
	// full batch — the discipline-change reset path. The windowed lanes
	// (tight FIFO and DRAM windows that stall into the per-lane replay,
	// a windowed Regulated lane) pin the closed-loop arenas — completion
	// heaps, dequeue rings, replay scratch — as retained too.
	full := []Config{
		mk(16, 2, BankConfig{}),
		mk(32, 6, BankConfig{}),
		mk(64, 14, BankConfig{}),
		mk(8, 30, BankConfig{}),
		mk(16, 4, BankConfig{Discipline: DRAM, CacheLines: 1, HitDelay: 1, MissDelay: 8}),
		mk(16, 4, BankConfig{Discipline: Regulated, RegWindow: 16, RegBudget: 2}),
		mk(16, 4, BankConfig{Discipline: GPUShared, WarpSize: 8}),
		mk(128, 6, BankConfig{}),
		mkw(16, 6, 2, BankConfig{}),
		mkw(8, 12, 1, BankConfig{Discipline: DRAM, CacheLines: 1, HitDelay: 1, MissDelay: 12}),
		mkw(16, 4, 3, BankConfig{Discipline: Regulated, RegWindow: 16, RegBudget: 2}),
	}
	shrunk := full[:4]

	b := NewBatchEngine()
	ctx := context.Background()
	run := func(cfgs []Config) {
		if _, err := b.Run(ctx, cfgs, pt); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	run(full) // warm every arena
	run(shrunk)
	run(full)

	allocs := testing.AllocsPerRun(5, func() {
		run(full)
		run(shrunk)
		run(full)
	})
	if allocs != 0 {
		t.Errorf("warm batch cycle allocated %.1f times, want 0", allocs)
	}
}

// TestRunBatchEmpty covers the degenerate shapes: zero lanes and a
// zero-request pattern.
func TestRunBatchEmpty(t *testing.T) {
	res, err := RunBatch(context.Background(), nil, batchGoldenPattern())
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(res))
	}
	cfg := Config{Machine: core.Machine{Name: "e", Procs: 4, Banks: 8, D: 2, G: 1, L: 0}}
	res, err = RunBatch(context.Background(), []Config{cfg}, core.Pattern{PerProc: [][]uint64{{}, {}}})
	if err != nil {
		t.Fatalf("empty pattern: %v", err)
	}
	if res[0].Cycles != 0 || res[0].Requests != 0 {
		t.Errorf("empty pattern result: %+v", res[0])
	}
}

// TestRunRoutesOnlyOpenLoopEligible pins RunContext's one routing rule,
// BatchEligible(cfg), by the path that actually runs: under a context
// cancelled up front the lockstep walk fails at its first poll with a
// "batch cancelled" error and the event engine fails after its first
// cancelCheckEvents events. Open- and closed-loop eligible configs take
// the lockstep walk; probes, sections, combining, row caches, GPUShared,
// DRAM bank groups and multi-row DRAM stay on the event engine.
func TestRunRoutesOnlyOpenLoopEligible(t *testing.T) {
	m := core.Machine{Name: "r", Procs: 4, Banks: 32, D: 4, G: 1, L: 2, Sections: 4, SectionGap: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pt := bigPattern()
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"fifo", Config{Machine: m}, true},
		{"regulated", Config{Machine: m, Bank: BankConfig{Discipline: Regulated}}, true},
		{"dram single row", Config{Machine: m, Bank: BankConfig{Discipline: DRAM}}, true},
		{"fifo windowed", Config{Machine: m, Window: 2}, true},
		{"regulated windowed", Config{Machine: m, Window: 2, Bank: BankConfig{Discipline: Regulated}}, true},
		{"dram windowed", Config{Machine: m, Window: 1, Bank: BankConfig{Discipline: DRAM, CacheLines: 1}}, true},
		{"probe", Config{Machine: m, Probe: &countingProbe{}}, false},
		{"windowed probe", Config{Machine: m, Window: 2, Probe: &countingProbe{}}, false},
		{"sections", Config{Machine: m, UseSections: true}, false},
		{"combining", Config{Machine: m, Combining: true}, false},
		{"row cache", Config{Machine: m, Bank: BankConfig{CacheLines: 1}}, false},
		{"gpu", Config{Machine: m, Bank: BankConfig{Discipline: GPUShared}}, false},
		{"dram groups", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, Groups: 4}}, false},
		{"dram multirow", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, CacheLines: 2}}, false},
	} {
		if got := BatchEligible(tc.cfg); got != tc.want {
			t.Errorf("%s: BatchEligible = %t, want %t", tc.name, got, tc.want)
		}
		_, err := RunContext(ctx, tc.cfg, pt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v does not wrap context.Canceled", tc.name, err)
		}
		if got := strings.Contains(err.Error(), "batch cancelled"); got != tc.want {
			t.Errorf("%s: lockstep route = %t, want %t (error %q)", tc.name, got, tc.want, err)
		}
	}
}

// TestReplayTreeOddProcs holds the window-stall replay's tournament tree
// to both oracles at processor counts that are not powers of two (the
// tree pads them with idle leaves) and at the degenerate p = 1. Every
// case is windowed tightly enough to stall, so Run detaches into the
// replay; NetDelay 0 exercises the late re-inject, whose key sorts
// between a same-instant inject and a completion.
func TestReplayTreeOddProcs(t *testing.T) {
	banks := []BankConfig{
		{},
		{Discipline: Regulated, RegWindow: 12, RegBudget: 2},
		{Discipline: DRAM, CacheLines: 1, HitDelay: 2, MissDelay: 7, RowWords: 8},
	}
	for _, p := range []int{1, 3, 5, 63, 65, 513} {
		rg := rng.New(uint64(p))
		addrs := make([]uint64, 4*p+3)
		for i := range addrs {
			addrs[i] = rg.Uint64n(uint64(2 * p))
		}
		pt := core.NewPattern(addrs, p)
		for _, bank := range banks {
			for _, nd := range []float64{0, 3} {
				cfg := Config{
					Machine:  core.Machine{Name: "odd", Procs: p, Banks: 2 * p, D: 6, G: 1, L: 2 * nd},
					NetDelay: nd,
					Window:   1 + p%3,
					Bank:     bank,
				}
				ref, err := RunReference(cfg, pt)
				if err != nil {
					t.Fatalf("p=%d %s nd=%g reference: %v", p, bank.Discipline, nd, err)
				}
				events, err := NewEngine().Run(context.Background(), cfg, pt)
				if err != nil {
					t.Fatalf("p=%d %s nd=%g event engine: %v", p, bank.Discipline, nd, err)
				}
				got, err := Run(cfg, pt)
				if err != nil {
					t.Fatalf("p=%d %s nd=%g Run: %v", p, bank.Discipline, nd, err)
				}
				if events != ref || got != ref {
					t.Errorf("p=%d %s nd=%g:\n Run:          %+v\n event engine: %+v\n reference:    %+v",
						p, bank.Discipline, nd, got, events, ref)
				}
			}
		}
	}
}
