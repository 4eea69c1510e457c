package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
)

func batcherTestPattern(n int) core.Pattern {
	rg := rng.New(42)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = rg.Uint64n(1 << 30)
	}
	return core.NewPattern(addrs, 8)
}

func batcherTestConfig(x int, d float64) sim.Config {
	return sim.Config{Machine: core.Machine{Name: "bt", Procs: 8, Banks: 8 * x, D: d, G: 1, L: 2}}
}

// TestBatcherByteIdentical drives concurrent calls through a Batcher and
// pins every result to the event engine's.
func TestBatcherByteIdentical(t *testing.T) {
	pt := batcherTestPattern(4096)
	b := NewBatcher(4)
	var cfgs []sim.Config
	for _, x := range []int{1, 2, 4, 8, 16} {
		for _, d := range []float64{2, 6, 14} {
			cfgs = append(cfgs, batcherTestConfig(x, d))
		}
	}
	got := make([]sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg sim.Config) {
			defer wg.Done()
			got[i], errs[i] = b.RunSim(context.Background(), cfg, pt)
		}(i, cfg)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		want, err := sim.NewEngine().Run(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("event engine %d: %v", i, err)
		}
		if got[i] != want {
			t.Errorf("lane %d: batched %+v != event engine %+v", i, got[i], want)
		}
	}
}

// TestBatcherPassthrough pins that the Batcher forwards every call to
// Next and classifies only live calls while K > 1: nothing at K <= 1 or
// under a dead context, otherwise "" for an eligible config and the
// fallback reason for an ineligible one.
func TestBatcherPassthrough(t *testing.T) {
	pt := batcherTestPattern(64)
	var forwarded atomic.Int32
	next := experiments.SimRunnerFunc(func(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
		forwarded.Add(1)
		return sim.RunContext(ctx, cfg, pt)
	})
	var reasons []string
	observe := func(cfg sim.Config, pt core.Pattern, reason string) { reasons = append(reasons, reason) }
	sections := batcherTestConfig(2, 4)
	sections.Machine.Sections, sections.Machine.SectionGap = 4, 1
	sections.UseSections, sections.Window = true, 2

	b := &Batcher{K: 1, Next: next, Observe: observe}
	if _, err := b.RunSim(context.Background(), batcherTestConfig(2, 4), pt); err != nil {
		t.Fatal(err)
	}

	b.K = 4
	for _, cfg := range []sim.Config{batcherTestConfig(2, 4), sections} {
		if _, err := b.RunSim(context.Background(), cfg, pt); err != nil {
			t.Fatal(err)
		}
	}

	// A dead context still forwards (the run itself is small enough to
	// finish between cancellation polls, so the call is not required to
	// error) but is not classified.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.RunSim(dead, batcherTestConfig(2, 4), pt); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	if n := forwarded.Load(); n != 4 {
		t.Fatalf("forwarded %d calls, want 4", n)
	}
	if want := []string{"", "sections"}; strings.Join(reasons, ",") != strings.Join(want, ",") {
		t.Fatalf("classified %q, want %q", reasons, want)
	}
}

// TestBatcherEfficacyCounters pins the batch observability contract:
// lanes reported through Observer.ObserveBatchLane export SimKey-deduped
// fast/fallback counters with per-reason labels, re-submissions do not
// double-count, and an observer that never saw batching exports no batch
// series at all — so metrics goldens without -batch stay byte-identical.
func TestBatcherEfficacyCounters(t *testing.T) {
	pt := batcherTestPattern(256)
	o := NewObserver()
	b := NewBatcher(2)
	b.Observe = o.ObserveBatchLane

	fast1 := batcherTestConfig(2, 4)
	fast2 := batcherTestConfig(2, 4)
	fast2.Window = 4 // windowed lanes are fast-path now
	gpu := batcherTestConfig(2, 4)
	gpu.Bank = sim.BankConfig{Discipline: sim.GPUShared} // so are warps
	grouped := batcherTestConfig(2, 4)
	grouped.Bank = sim.BankConfig{Discipline: sim.DRAM, Groups: 2}

	run := func() {
		var wg sync.WaitGroup
		for _, cfg := range []sim.Config{fast1, fast2, gpu, grouped} {
			wg.Add(1)
			go func(cfg sim.Config) {
				defer wg.Done()
				if _, err := b.RunSim(context.Background(), cfg, pt); err != nil {
					t.Error(err)
				}
			}(cfg)
		}
		wg.Wait()
	}
	run()
	run() // resubmission: SimKey dedup must keep every counter unchanged

	out := omExport(t, o)
	for _, want := range []string{
		"dxbsp_batch_fast_lanes_total 3",
		`dxbsp_batch_fallback_lanes_total{reason="dram-groups"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "gpu-shared") {
		t.Errorf("export still labels a GPUShared lane as a fallback:\n%s", out)
	}
	if strings.Contains(omExport(t, NewObserver()), "dxbsp_batch") {
		t.Error("observer without batching exported batch series")
	}
}
