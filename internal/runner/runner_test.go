package runner

import (
	"context"
	"strings"
	"sync"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
)

func render(t *testing.T, r experiments.Renderable) string {
	t.Helper()
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// The headline guarantee: for every experiment, the parallel runner's
// output is byte-identical to the serial path, for several worker counts,
// with and without the cache. T3 is excluded: one of its columns is a
// wall-clock measurement of the host machine.
func TestParallelOutputMatchesSerial(t *testing.T) {
	cfg := experiments.QuickConfig()
	ctx := context.Background()
	for _, e := range experiments.All() {
		if e.ID == "T3" {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			want := render(t, e.MustRun(cfg))
			for _, workers := range []int{1, 3, 8} {
				r := &Runner{Parallel: workers, Cache: NewCache()}
				res, err := r.RunExperiment(ctx, e, cfg)
				if err != nil {
					t.Fatalf("parallel=%d: %v", workers, err)
				}
				if got := render(t, res.Output); got != want {
					t.Errorf("parallel=%d output differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
						workers, want, got)
				}
			}
			nc := &Runner{Parallel: 4} // no cache
			res, err := nc.RunExperiment(ctx, e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(t, res.Output); got != want {
				t.Errorf("uncached output differs from serial")
			}
		})
	}
}

// Sweeps share simulation baselines (the contention sweep appears in T2,
// F2, X2 and X5; X13 re-derives its open-loop baseline per point), so a
// suite run must hit the cache.
func TestCacheHitsAcrossExperiments(t *testing.T) {
	cfg := experiments.QuickConfig()
	r := &Runner{Parallel: 2, Cache: NewCache()}
	for _, id := range []string{"T2", "F2", "X2", "X5", "X13"} {
		e, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		if _, err := r.RunExperiment(context.Background(), e, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Cache.Stats()
	if st.Hits == 0 {
		t.Errorf("no cache hits across shared-baseline experiments: %+v", st)
	}
	if st.Misses == 0 {
		t.Errorf("cache recorded no misses: %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Errorf("implausible hit rate %v", st.HitRate())
	}
}

func TestRunAllStopsOnError(t *testing.T) {
	boom := experiments.Experiment{
		ID:    "BOOM",
		Title: "always fails",
		Points: func(experiments.Config) []experiments.Point {
			e, _ := experiments.Lookup("F2")
			return e.Points(experiments.QuickConfig())[:1]
		},
		RunPoint: func(ctx context.Context, cfg experiments.Config, p experiments.Point) (experiments.PointResult, error) {
			return experiments.PointResult{}, context.DeadlineExceeded
		},
		Assemble: func(experiments.Config, []experiments.PointResult) experiments.Renderable {
			t.Fatal("Assemble called after point failure")
			return nil
		},
	}
	r := &Runner{Parallel: 2}
	e2, _ := experiments.Lookup("T1")
	results, err := r.RunAll(context.Background(), []experiments.Experiment{boom, e2}, experiments.QuickConfig())
	if err == nil {
		t.Fatal("RunAll swallowed the point error")
	}
	if len(results) != 0 {
		t.Errorf("RunAll continued past the failure: %d results", len(results))
	}
	if !strings.Contains(err.Error(), "BOOM") {
		t.Errorf("error %q does not name the experiment", err)
	}
}

func TestRunExperimentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := experiments.Lookup("F2")
	r := &Runner{Parallel: 2}
	if _, err := r.RunExperiment(ctx, e, experiments.QuickConfig()); err == nil {
		t.Error("cancelled run reported success")
	}
}

func TestStatsPlausible(t *testing.T) {
	e, _ := experiments.Lookup("F2")
	r := &Runner{Parallel: 2}
	res, err := r.RunExperiment(context.Background(), e, experiments.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Points != len(e.Points(experiments.QuickConfig())) {
		t.Errorf("Points = %d", st.Points)
	}
	if st.Workers < 1 || st.Workers > 2 {
		t.Errorf("Workers = %d", st.Workers)
	}
	if st.Wall <= 0 || st.Busy <= 0 {
		t.Errorf("non-positive times: %+v", st)
	}
	if u := st.Utilization(); u <= 0 || u > 1 {
		t.Errorf("Utilization = %v", u)
	}
}

// --- cache unit tests ----------------------------------------------------

func testPattern(n int, seed uint64) core.Pattern {
	return core.NewPattern(patterns.Uniform(n, 1<<20, rng.New(seed)), 4)
}

func testConfig() sim.Config {
	return sim.Config{Machine: core.Machine{Name: "t", Procs: 4, Banks: 32, D: 4, G: 1, L: 8}}
}

func TestCacheMemoizes(t *testing.T) {
	c := NewCache()
	cfg, pt := testConfig(), testPattern(256, 1)
	r1, err := c.RunSim(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.RunSim(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("cached result differs: %+v vs %+v", r1, r2)
	}
	direct, err := sim.Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != direct {
		t.Errorf("cached result differs from direct sim.Run: %+v vs %+v", r1, direct)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Bypassed != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// Every knob of sim.Config must discriminate the key: flipping any one of
// them on the same pattern must miss.
func TestCacheKeyDiscriminates(t *testing.T) {
	base := testConfig()
	pt := testPattern(256, 1)
	variants := []sim.Config{
		{Machine: base.Machine, Window: 4},
		{Machine: base.Machine, Combining: true},
		{Machine: base.Machine, NetDelay: 9},
		{Machine: base.Machine, UseSections: true},
		{Machine: base.Machine, Bank: sim.BankConfig{CacheLines: 2}},
		{Machine: base.Machine, Bank: sim.BankConfig{CacheLines: 2, HitDelay: 3}},
		{Machine: base.Machine, Bank: sim.BankConfig{CacheLines: 2, RowWords: 1 << 7}},
		{Machine: func() core.Machine { m := base.Machine; m.D = 9; return m }()},
		{Machine: base.Machine, BankMap: hashfn.Map{F: hashfn.Identity{M: 5}}},
	}
	c := NewCache()
	if _, err := c.RunSim(context.Background(), base, pt); err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		if _, err := c.RunSim(context.Background(), v, pt); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	// A different pattern with the same shape must also miss.
	if _, err := c.RunSim(context.Background(), base, testPattern(256, 2)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 0 {
		t.Errorf("distinct configs produced cache hits: %+v", st)
	}
	if want := uint64(len(variants) + 2); st.Misses != want {
		t.Errorf("misses = %d, want %d", st.Misses, want)
	}
}

// The normalized defaults and their explicit spellings are the same key.
func TestCacheKeyNormalizes(t *testing.T) {
	m := testConfig().Machine
	pt := testPattern(256, 1)
	c := NewCache()
	if _, err := c.RunSim(context.Background(), sim.Config{Machine: m}, pt); err != nil {
		t.Fatal(err)
	}
	explicit := sim.Config{
		Machine:  m,
		BankMap:  core.InterleaveMap{Banks: m.Banks},
		NetDelay: m.L / 2,
	}
	if _, err := c.RunSim(context.Background(), explicit, pt); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("explicit defaults missed the cache: %+v", st)
	}
}

// An unknown bank map type cannot be fingerprinted; the cache must bypass
// rather than guess.
type opaqueMap struct{ banks int }

func (m opaqueMap) Bank(addr uint64) int { return int(addr) % m.banks }
func (m opaqueMap) NumBanks() int        { return m.banks }

func TestCacheBypassesUnknownBankMap(t *testing.T) {
	c := NewCache()
	cfg := testConfig()
	cfg.BankMap = opaqueMap{banks: 32}
	pt := testPattern(256, 1)
	for i := 0; i < 2; i++ {
		if _, err := c.RunSim(context.Background(), cfg, pt); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Bypassed != 2 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 2 bypassed", st)
	}
}

// Concurrent identical requests must be deduplicated into one execution
// and all receive the same result.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	cfg, pt := testConfig(), testPattern(1024, 3)
	const callers = 8
	results := make([]sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.RunSim(context.Background(), cfg, pt)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got %+v, caller 0 got %+v", i, results[i], results[0])
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, callers-1)
	}
}

func TestCacheReturnsErrors(t *testing.T) {
	c := NewCache()
	bad := testConfig()
	bad.Window = -1
	pt := testPattern(16, 1)
	for i := 0; i < 2; i++ {
		if _, err := c.RunSim(context.Background(), bad, pt); err == nil {
			t.Fatal("invalid config succeeded")
		}
	}
}
