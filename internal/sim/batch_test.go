package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// batchGoldenConfigs builds the 128-config golden grid: eight
// discipline/window variants × expansion x ∈ {1,8} × d ∈ {2,6,14,30} ×
// g ∈ {1,2}, the axes a sweep varies, crossed with every
// lockstep class — open- and closed-loop FIFO (including Window=1,
// which stalls almost immediately), eligible and ineligible DRAM,
// windowed Regulated, GPUShared warps — plus the config only the event
// engine serves (multi-row DRAM).
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

// TestBatchMatchesScalarGolden128 is the golden differential: all 128
// configs across all four disciplines, each run through Run and
// compared field-for-field against the event engine. The oracle is
// NewEngine().Run, not Run: Run routes eligible configs through the
// lockstep walk under test.
func TestBatchMatchesScalarGolden128(t *testing.T) {
	cfgs := batchGoldenConfigs()
	if len(cfgs) != 128 {
		t.Fatalf("golden grid has %d configs, want 128", len(cfgs))
	}
	pt := batchGoldenPattern()
	fast := 0
	for i, cfg := range cfgs {
		if BatchEligible(cfg) {
			fast++
		}
		got, err := Run(cfg, pt)
		if err != nil {
			t.Fatalf("config %d Run: %v", i, err)
		}
		want, err := NewEngine().Run(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("config %d event engine: %v", i, err)
		}
		if got != want {
			t.Errorf("config %d (disc=%s x=%d d=%g g=%g): Run %+v != event engine %+v",
				i, cfg.Bank.Discipline, cfg.Machine.Banks/8, cfg.Machine.D, cfg.Machine.G, got, want)
		}
	}
	if fast != 112 {
		t.Fatalf("golden grid has %d lockstep configs, want 112 (seven of the eight variants)", fast)
	}
}

// TestBatchMatchesScalarCustomMapAndShapes covers what the golden grid
// does not: non-power-of-two bank counts (the modulo map paths), a
// custom BankMap (the mapGeneric interface fallback), ragged and empty
// processor streams, and NetDelay = 0.
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
	for i, cfg := range cfgs {
		if !BatchEligible(cfg) {
			t.Fatalf("config %d unexpectedly ineligible", i)
		}
		got, err := Run(cfg, pt)
		if err != nil {
			t.Fatalf("config %d Run: %v", i, err)
		}
		want, err := NewEngine().Run(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("config %d event engine: %v", i, err)
		}
		if got != want {
			t.Errorf("config %d: Run %+v != event engine %+v", i, got, want)
		}
	}
}

// xorMap is a deliberately non-interleave BankMap: it must route through
// the mapGeneric interface path in both engines.
type xorMap struct{ banks int }

func (m xorMap) Bank(addr uint64) int { return int((addr ^ addr>>3) % uint64(m.banks)) }
func (m xorMap) NumBanks() int        { return m.banks }

// TestBatchEngineReuseZeroAllocs pins the pooling contract: once a
// lockstep engine has seen a shape, re-running configs on it — bank
// counts shrinking and growing, discipline changes, and processor
// counts shrinking and growing under the windowed and warp runs —
// allocates nothing. The windowed section config is not
// lockstep-eligible; it runs on a held event engine in the same cycle.
func TestBatchEngineReuseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rg := rng.New(7)
	addrs := make([]uint64, 2048)
	for i := range addrs {
		addrs[i] = rg.Uint64n(1 << 30)
	}
	pt8, pt3 := core.NewPattern(addrs, 8), core.NewPattern(addrs[:1000], 3)

	mk := func(banks int, d float64, bank BankConfig) Config {
		return Config{Machine: core.Machine{Name: "z", Procs: 8, Banks: banks, D: d, G: 1, L: 2}, Bank: bank}
	}
	mkw := func(banks int, d float64, window int, bank BankConfig) Config {
		c := mk(banks, d, bank)
		c.Window = window
		return c
	}
	sectioned := func(c Config, window int) Config {
		c.Machine.Sections, c.Machine.SectionGap = 4, 0.5
		c.UseSections, c.Window = true, window
		return c
	}
	// The windowed configs (tight FIFO and DRAM windows that stall into
	// the replay, a windowed Regulated one) pin the closed-loop arenas —
	// completion heaps, dequeue rings, replay scratch — as retained too.
	cfgs := []Config{
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
		sectioned(mk(24, 4, BankConfig{}), 0),
		sectioned(mk(64, 6, BankConfig{}), 3),
	}

	ls, ev := new(lockstep), NewEngine()
	ctx := context.Background()
	run := func(pt core.Pattern) {
		for _, cfg := range cfgs {
			var err error
			if BatchEligible(cfg) {
				_, err = ls.run(ctx, cfg, pt)
			} else {
				_, err = ev.Run(ctx, cfg, pt)
			}
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
	}
	run(pt8) // warm every arena
	run(pt3)

	allocs := testing.AllocsPerRun(5, func() {
		run(pt8)
		run(pt3)
		run(pt8)
	})
	if allocs != 0 {
		t.Errorf("warm cycle allocated %.1f times, want 0", allocs)
	}
}

// TestRunBatchEmpty covers a zero-request pattern on every lockstep
// loop (runPlain, runMixed, runSections and runWarps).
func TestRunBatchEmpty(t *testing.T) {
	m := core.Machine{Name: "e", Procs: 4, Banks: 8, D: 2, G: 1, L: 0}
	pt := core.Pattern{PerProc: [][]uint64{{}, {}}}
	for _, cfg := range []Config{
		{Machine: m},
		{Machine: m, Window: 2, Bank: BankConfig{Discipline: Regulated}},
		{Machine: core.Machine{Name: "e", Procs: 4, Banks: 8, D: 2, G: 1, Sections: 2, SectionGap: 1}, UseSections: true},
		{Machine: m, Bank: BankConfig{Discipline: GPUShared}},
	} {
		res, err := Run(cfg, pt)
		if err != nil {
			t.Fatalf("empty pattern: %v", err)
		}
		if res.Cycles != 0 || res.Requests != 0 {
			t.Errorf("empty pattern result: %+v", res)
		}
	}
}

// TestWideWindowMatchesOpenLoop holds the closed-loop walk to the
// open-loop one: with Window at least the longest per-processor stream
// no processor ever blocks, so Run and the event engine must return
// exactly the open-loop Result. For FIFO that compares runMixed's
// closed-loop path with runPlain, two copies of the same service logic
// that no other test compares directly.
func TestWideWindowMatchesOpenLoop(t *testing.T) {
	banks := []BankConfig{
		{},
		{Discipline: Regulated, RegWindow: 12, RegBudget: 2},
		{Discipline: DRAM, CacheLines: 1, HitDelay: 2, MissDelay: 7, RowWords: 8},
	}
	for _, p := range []int{1, 3, 8, 64} {
		rg := rng.New(uint64(p) + 40)
		addrs := make([]uint64, 37*p+2)
		for i := range addrs {
			addrs[i] = rg.Uint64n(uint64(4 * p))
		}
		pt := core.NewPattern(addrs, p)
		longest := 0
		for _, s := range pt.PerProc {
			longest = max(longest, len(s))
		}
		for _, bank := range banks {
			for _, nd := range []float64{0, 3} {
				open := Config{
					Machine:  core.Machine{Name: "wide", Procs: p, Banks: 2 * p, D: 6, G: 1, L: 2 * nd},
					NetDelay: nd,
					Bank:     bank,
				}
				want, err := Run(open, pt)
				if err != nil {
					t.Fatalf("p=%d %s nd=%g open loop: %v", p, bank.Discipline, nd, err)
				}
				for _, w := range []int{longest, longest + 5} {
					wide := open
					wide.Window = w
					got, err := Run(wide, pt)
					if err != nil {
						t.Fatalf("p=%d %s nd=%g window %d Run: %v", p, bank.Discipline, nd, w, err)
					}
					events, err := NewEngine().Run(context.Background(), wide, pt)
					if err != nil {
						t.Fatalf("p=%d %s nd=%g window %d event engine: %v", p, bank.Discipline, nd, w, err)
					}
					if got != want || events != want {
						t.Errorf("p=%d %s nd=%g window %d:\n Run:          %+v\n event engine: %+v\n open loop:    %+v",
							p, bank.Discipline, nd, w, got, events, want)
					}
				}
			}
		}
	}
}

// TestRunRoutesOnlyOpenLoopEligible pins RunContext's one routing rule,
// BatchEligible(cfg), by the path that actually runs: under a context
// cancelled up front the lockstep walk fails at its first poll with a
// "batch cancelled" error and the event engine fails after its first
// cancelCheckEvents events. Open- and closed-loop eligible configs,
// GPUShared and open-loop FIFO sections take the lockstep walk; probes,
// windowed or non-FIFO sections, combining, row caches, DRAM bank groups
// and multi-row DRAM stay on the event engine.
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
		{"sections", Config{Machine: m, UseSections: true}, true},
		{"sections windowed", Config{Machine: m, UseSections: true, Window: 2}, false},
		{"sections regulated", Config{Machine: m, UseSections: true, Bank: BankConfig{Discipline: Regulated}}, false},
		{"combining", Config{Machine: m, Combining: true}, false},
		{"row cache", Config{Machine: m, Bank: BankConfig{CacheLines: 1}}, false},
		{"gpu", Config{Machine: m, Bank: BankConfig{Discipline: GPUShared}}, true},
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
// case is windowed tightly enough to stall, so Run finishes in the
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
				checkThreeWay(t, fmt.Sprintf("p=%d %s nd=%g", p, bank.Discipline, nd), cfg, pt)
			}
		}
	}
}

// checkThreeWay runs cfg through RunReference, the event engine and Run
// and requires all three Results to be equal.
func checkThreeWay(t *testing.T, name string, cfg Config, pt core.Pattern) {
	t.Helper()
	ref, err := RunReference(cfg, pt)
	if err != nil {
		t.Fatalf("%s reference: %v", name, err)
	}
	events, err := NewEngine().Run(context.Background(), cfg, pt)
	if err != nil {
		t.Fatalf("%s event engine: %v", name, err)
	}
	got, err := Run(cfg, pt)
	if err != nil {
		t.Fatalf("%s Run: %v", name, err)
	}
	if events != ref || got != ref {
		t.Errorf("%s:\n Run:          %+v\n event engine: %+v\n reference:    %+v", name, got, events, ref)
	}
}

// TestWarpWalkOddProcs holds runWarps to both oracles at processor
// counts the tournament tree pads (and the degenerate p = 1), over warp
// sizes that split the streams raggedly, with every fourth processor's
// stream empty. NetDelay 0 exercises the late warp inject, released at
// its own completion instant; 0.5 puts lane arrivals between grid
// points. Every other processor count runs a custom BankMap instead of
// the GPU word-interleaved default.
func TestWarpWalkOddProcs(t *testing.T) {
	for _, p := range []int{1, 3, 5, 63, 65, 513} {
		rg := rng.New(uint64(p) + 11)
		addrs := make([]uint64, 9*p+5)
		for i := range addrs {
			addrs[i] = rg.Uint64n(uint64(8 * p))
		}
		pt := core.NewPattern(addrs, p)
		for q := 3; q < p; q += 4 {
			pt.PerProc[q] = nil
		}
		for _, warp := range []int{1, 7, 32} {
			for _, nd := range []float64{0, 0.5, 3} {
				cfg := Config{
					Machine:  core.Machine{Name: "warp", Procs: p, Banks: p + 2, D: 2, G: 1, L: 2 * nd},
					NetDelay: nd,
					Bank:     BankConfig{Discipline: GPUShared, WarpSize: warp},
				}
				if p%2 == 1 && p > 1 {
					cfg.BankMap = xorMap{banks: p + 2}
				}
				if !BatchEligible(cfg) {
					t.Fatalf("p=%d warp=%d: GPUShared config ineligible", p, warp)
				}
				checkThreeWay(t, fmt.Sprintf("p=%d warp=%d nd=%g", p, warp, nd), cfg, pt)
			}
		}
	}
}

// TestSectionWalkUnevenSections holds runSections to both oracles when
// Sections does not divide Banks, so the last section owns fewer banks
// (ceil-sized contiguous ranges), across section gaps below, at and
// above the issue gap and with NetDelay 0, where the section arrival is
// taken inside the inject.
func TestSectionWalkUnevenSections(t *testing.T) {
	for _, shape := range []struct{ procs, banks, sections int }{
		{4, 10, 3}, {5, 7, 4}, {8, 30, 8}, {3, 9, 2},
	} {
		rg := rng.New(uint64(shape.banks))
		addrs := make([]uint64, 37*shape.procs+3)
		for i := range addrs {
			addrs[i] = rg.Uint64n(uint64(3 * shape.banks))
		}
		pt := core.NewPattern(addrs, shape.procs)
		for _, sg := range []float64{0.25, 1, 3} {
			for _, nd := range []float64{0, 0.5, 3} {
				cfg := Config{
					Machine: core.Machine{Name: "sec", Procs: shape.procs, Banks: shape.banks, D: 4, G: 1,
						L: 2 * nd, Sections: shape.sections, SectionGap: sg},
					NetDelay:    nd,
					UseSections: true,
				}
				if !BatchEligible(cfg) {
					t.Fatalf("%+v: open-loop section config ineligible", shape)
				}
				checkThreeWay(t, fmt.Sprintf("%+v sg=%g nd=%g", shape, sg, nd), cfg, pt)
			}
		}
	}
}
