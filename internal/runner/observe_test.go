package runner

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/metrics"
	"dxbsp/internal/sim"
)

// omExport renders an observer's deterministic snapshot as OpenMetrics
// text — the byte-level artifact the determinism contract is stated over.
func omExport(t *testing.T, o *Observer) string {
	t.Helper()
	var b strings.Builder
	if err := metrics.WriteOpenMetrics(&b, o.Snapshot(false)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func runWithObserver(t *testing.T, r *Runner, ids ...string) *Observer {
	t.Helper()
	o := NewObserver()
	r.Metrics = o
	cfg := experiments.QuickConfig()
	for _, id := range ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		if _, err := r.RunExperiment(context.Background(), e, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// The tentpole contract, runner half: the deterministic metric export is
// byte-identical for any worker count, with and without the cache.
func TestObserverDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, tc := range []struct {
		name    string
		workers int
		cache   bool
	}{
		{"serial-cached", 1, true},
		{"parallel4-cached", 4, true},
		{"parallel8-cached", 8, true},
		{"parallel4-uncached", 4, false},
	} {
		r := &Runner{Parallel: tc.workers}
		if tc.cache {
			r.Cache = NewCache()
		}
		got := omExport(t, runWithObserver(t, r, "T2", "X2"))
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s: metric export differs from serial-cached baseline\n--- want ---\n%s\n--- got ---\n%s",
				tc.name, want, got)
		}
	}
	if !strings.Contains(want, "dxbsp_sim_runs") || !strings.Contains(want, "# EOF") {
		t.Errorf("export missing expected series:\n%s", want)
	}
}

// Attaching the observer must not change experiment output (the sim-level
// differential test covers cycle counts; this covers the rendered tables).
func TestObserverDoesNotChangeOutput(t *testing.T) {
	cfg := experiments.QuickConfig()
	e, _ := experiments.Lookup("T2")
	plain, err := (&Runner{Parallel: 4, Cache: NewCache()}).RunExperiment(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Parallel: 4, Cache: NewCache(), Metrics: NewObserver()}
	probed, err := r.RunExperiment(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if render(t, plain.Output) != render(t, probed.Output) {
		t.Error("observer changed experiment output")
	}
	if r.Metrics.Runs() == 0 {
		t.Error("observer saw no simulations")
	}
}

// flakyRunner fails the first attempt of every distinct simulation with a
// transient error — a deterministic stand-in for the chaos injector's
// seat below the cache (the real injector lives in internal/faults, which
// imports this package). Retried attempts succeed, so with a retry budget
// the run completes and the metric export must equal a clean run's.
type flakyRunner struct {
	mu     sync.Mutex
	seen   map[string]bool
	faults int
}

func (f *flakyRunner) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	key, _ := SimKey(cfg, pt)
	f.mu.Lock()
	// At most one fault per key and two in total, so a point that issues
	// several simulations cannot draw a fresh fault on every retry and
	// exhaust its budget.
	fault := !f.seen[key] && f.faults < 2
	f.seen[key] = true
	if fault {
		f.faults++
	}
	f.mu.Unlock()
	if fault {
		return sim.Result{}, MarkTransient(fmt.Errorf("injected transient fault"))
	}
	return sim.RunContext(ctx, cfg, pt)
}

func TestObserverDeterministicUnderTransientFaults(t *testing.T) {
	clean := omExport(t, runWithObserver(t, &Runner{Parallel: 4, Cache: NewCache()}, "T2"))

	r := &Runner{Parallel: 4, Cache: NewCache(), Retry: RetryPolicy{MaxAttempts: 3}}
	r.Cache.Next = &flakyRunner{seen: make(map[string]bool)}
	faulty := omExport(t, runWithObserver(t, r, "T2"))

	if faulty != clean {
		t.Errorf("metric export differs under transient faults\n--- clean ---\n%s\n--- faulty ---\n%s", clean, faulty)
	}
}

// Failed attempts must contribute nothing: a run that never completes has
// no RunDone, so an all-faulting simulation leaves the contribution map
// empty even though bank/section hooks fired before the abort.
func TestObserverIgnoresIncompleteRuns(t *testing.T) {
	o := NewObserver()
	cfg := sim.Config{Machine: core.J90()}.Normalize()
	pt := core.NewPattern([]uint64{1, 2, 3, 4}, 4)
	rp := o.RunStart(cfg, pt)
	rp.BankArrive(0, 1, 0)
	rp.BankStart(0, 1, 8, 0, false, false)
	// No RunDone: simulate a cancellation mid-run.
	if o.Runs() != 0 {
		t.Errorf("incomplete run committed a contribution")
	}
	if len(o.Snapshot(false)) == 0 {
		t.Fatal("empty snapshot should still carry the series")
	}
	for _, s := range o.Snapshot(false) {
		if s.Name == "dxbsp_sim_requests" && s.Value != 0 {
			t.Errorf("incomplete run leaked %g requests", s.Value)
		}
	}
}

// Re-executing the same simulation (no cache, or retry after a fault)
// must be idempotent: contributions are keyed by content, so N runs of
// one simulation count once.
func TestObserverIdempotentOnReexecution(t *testing.T) {
	o := NewObserver()
	cfg := sim.Config{Machine: core.J90(), Probe: o}
	pt := core.NewPattern([]uint64{10, 20, 30, 40, 50, 60, 70, 80}, core.J90().Procs)
	for i := 0; i < 3; i++ {
		if _, err := sim.Run(cfg, pt); err != nil {
			t.Fatal(err)
		}
	}
	if o.Runs() != 1 {
		t.Errorf("3 executions of one simulation committed %d contributions, want 1", o.Runs())
	}
	for _, s := range o.Snapshot(false) {
		if s.Name == "dxbsp_sim_requests" && s.Value != float64(pt.N()) {
			t.Errorf("dxbsp_sim_requests = %g, want %d", s.Value, pt.N())
		}
	}
}

func TestObserverVolatileSplit(t *testing.T) {
	o := runWithObserver(t, &Runner{Parallel: 2, Cache: NewCache()}, "T2")
	o.ObserveCache(CacheStats{Hits: 1, Misses: 2})

	det := o.Snapshot(false)
	for _, s := range det {
		if s.Volatile {
			t.Errorf("volatile series %s in deterministic snapshot", s.Name)
		}
		if strings.HasPrefix(s.Name, "dxbsp_runner_") || strings.HasPrefix(s.Name, "dxbsp_cache_") {
			t.Errorf("wall-clock series %s not marked volatile", s.Name)
		}
	}
	all := o.Snapshot(true)
	var haveLat, haveCache, havePoints bool
	for _, s := range all {
		switch s.Name {
		case "dxbsp_runner_point_seconds":
			haveLat = s.Count > 0
		case "dxbsp_cache_hits":
			haveCache = true
		case "dxbsp_runner_points":
			havePoints = s.Value > 0
		}
	}
	if !haveLat || !haveCache || !havePoints {
		t.Errorf("volatile snapshot incomplete: latency=%t cache=%t points=%t", haveLat, haveCache, havePoints)
	}
}

func TestObserverBankProfileAndSummaries(t *testing.T) {
	o := runWithObserver(t, &Runner{Parallel: 4, Cache: NewCache()}, "T2")

	labels, rows := o.BankProfile()
	if len(labels) != 3 || len(rows) != 3 {
		t.Fatalf("profile shape: %d labels, %d rows", len(labels), len(rows))
	}
	loadSum := 0.0
	for _, v := range rows[0] {
		loadSum += v
	}
	var requests float64
	for _, s := range o.Snapshot(false) {
		if s.Name == "dxbsp_sim_requests" {
			requests = s.Value
		}
	}
	if loadSum != requests {
		t.Errorf("heatmap load total %g != dxbsp_sim_requests %g", loadSum, requests)
	}

	cs := o.CycleSummary()
	if cs.N != o.Runs() {
		t.Errorf("cycle summary over %d runs, observer has %d", cs.N, o.Runs())
	}
	if cs.Min <= 0 || cs.Max < cs.Min {
		t.Errorf("implausible cycle summary: %+v", cs)
	}
	// Repeated reads are deterministic.
	if a, b := omExport(t, o), omExport(t, o); a != b {
		t.Error("repeated snapshot export not byte-identical")
	}
}

// Runs returns the number of distinct simulations observed.
func (o *Observer) Runs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.contribs)
}
