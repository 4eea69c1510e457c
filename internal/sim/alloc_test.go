package sim

import (
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
)

// Regression test for the event loop's steady-state allocation behavior.
//
// Two historical bugs are pinned here. First, the pre-ring-buffer server
// dequeued with `s.queue = s.queue[1:]`, which both prevented the backing
// array from ever being reused (every enqueue after a dequeue grew a new
// tail) and pinned the full backing array for the life of the run.
// Second, container/heap boxed every pushed event into an interface{},
// costing one allocation per simulated event. With both fixed, the number
// of allocations per run is dominated by setup (O(procs + banks)) and
// must NOT scale with the number of requests: an 8x bigger pattern may
// only add the logarithmic handful of amortized ring/heap growths.
func TestEventLoopSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	m := core.J90()
	mk := func(n int) core.Pattern {
		return core.NewPattern(patterns.Uniform(n, 1<<30, rng.New(7)), m.Procs)
	}
	measure := func(pt core.Pattern, cfg Config) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg, pt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := mk(1<<11), mk(1<<14)

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"open-loop", Config{Machine: m}},
		{"windowed", Config{Machine: m, Window: 8}},
	} {
		aSmall := measure(small, tc.cfg)
		aBig := measure(big, tc.cfg)
		// Slack covers amortized doubling of the event queue and of the
		// per-bank rings between the two sizes; per-event allocations
		// would show up as thousands.
		if aBig > aSmall+64 {
			t.Errorf("%s: allocs grew with pattern size: %.0f at n=2^11 vs %.0f at n=2^14 (event loop is allocating per event)",
				tc.name, aSmall, aBig)
		}
		t.Logf("%s: %.0f allocs at n=2^11, %.0f at n=2^14", tc.name, aSmall, aBig)
	}
}

// TestProbesOffAllocBudget pins the absolute steady-state budget: with no
// probe attached, a warm run through the pooled engine performs zero
// allocations — Run draws a recycled Engine whose wheel buckets, rings
// and bookkeeping slices are re-armed in place. The budget of 8 (the
// pre-pooling per-run setup cost) leaves room for pool misses under GC
// pressure. The observability hooks are nil-checked pointer tests, so
// probes-off must not add a single allocation — if this fails after
// touching the hot path, a hook site is allocating (closure capture,
// interface conversion, fmt call) even when disabled, or reset stopped
// retaining a slab.
func TestProbesOffAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	if raceEnabled {
		t.Skip("race mode defeats sync.Pool caching, so the pooled-run budget cannot hold")
	}
	const budget = 8
	m := core.J90()
	pt := core.NewPattern(patterns.Uniform(1<<14, 1<<30, rng.New(7)), m.Procs)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"open-loop", Config{Machine: m}},
		{"windowed", Config{Machine: m, Window: 8}},
		{"regulated", Config{Machine: m, Bank: BankConfig{Discipline: Regulated}}},
		{"dram", Config{Machine: m, Bank: BankConfig{Discipline: DRAM}}},
	} {
		// One warm-up run is included in AllocsPerRun's own averaging;
		// rings and the event queue reach their high-water marks on the
		// first of the 10 runs, so growth is amortized below one alloc
		// and the average floors at the per-run setup cost.
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Run(tc.cfg, pt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: %.1f allocs per probes-off run, budget is %d", tc.name, allocs, budget)
		}
		t.Logf("%s: %.1f allocs per run (budget %d)", tc.name, allocs, budget)
	}
}
