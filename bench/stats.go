package main

import (
	"math"
	"sort"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// specs; TestBenchmarkJSONMatches keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed worsening as a share of the baseline median
}

// endToEnd are the metrics a dxbench user sees, reported per workload from
// untraced trials, with the times read at the reference speed
// (refkernel.go). model_max_relerr and failed_ratio are printed beside
// them but are 0 on most workloads, so the machine-read result carries the
// surrogate error as a per-layer metric and the failures as
// failed/attempted.
var endToEnd = []metricSpec{
	{"sim_requests_per_s", "req/s", "higher", 0.10},
	{"sweep_s_p50", "s", "lower", 0.10},
	{"point_s_p50", "s", "lower", 0.10},
	{"point_s_p95", "s", "lower", 0.15},
	{"cpu_s_per_sweep", "s", "lower", 0.10},
	{"alloc_mb_per_sweep", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.15},
}

// fallbackReasons are every label sim.BatchFallbackReason returns.
var fallbackReasons = []string{"combining", "probe", "sections", "row-cache", "dram-groups", "dram-multirow", "gpu-shared"}

// perLayer are the traced run's metrics: per-rep medians over the traced
// trial's timed reps. They carry no bound.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"sim.engine.calls", "count", "lower", 0},
		{"sim.engine.requests", "count", "lower", 0},
		{"sim.engine.busy_s", "s", "lower", 0},
		{"sim.engine.ns_per_request", "ns", "lower", 0},
		{"sim.cycles_total", "cycles", "lower", 0},
		{"runner.batcher.calls", "count", "lower", 0},
		{"runner.batcher.fast_lanes", "count", "higher", 0},
		{"runner.batcher.fast_ratio", "ratio", "higher", 0},
		{"runner.batcher.self_s", "s", "lower", 0},
	}
	for _, r := range fallbackReasons {
		specs = append(specs, metricSpec{"runner.batcher.fallback_lanes." + r, "count", "lower", 0})
	}
	return append(specs, []metricSpec{
		{"runner.observer.self_s", "s", "lower", 0},
		{"runner.observer.export_s", "s", "lower", 0},
		{"runner.surrogate.routed_requests", "count", "higher", 0},
		{"runner.surrogate.self_s", "s", "lower", 0},
		{"runner.surrogate.max_relerr", "ratio", "lower", 0},
		{"runner.cache.calls", "count", "lower", 0},
		{"runner.cache.misses", "count", "lower", 0},
		{"runner.cache.hit_ratio", "ratio", "higher", 0},
		{"runner.cache.self_s", "s", "lower", 0},
		{"runner.journal.open_s", "s", "lower", 0},
		{"runner.journal.appended", "count", "lower", 0},
		{"runner.journal.restored", "count", "higher", 0},
		{"runner.journal.sync_s", "s", "lower", 0},
		{"sweep.merge.busy_s", "s", "lower", 0},
		{"sweep.merge.records", "count", "lower", 0},
		{"tablefmt.render.busy_s", "s", "lower", 0},
		{"experiments.assemble.busy_s", "s", "lower", 0},
		{"experiments.points.busy_s", "s", "lower", 0},
		{"experiments.run_point.self_s", "s", "lower", 0},
		{"runner.pool.utilization", "ratio", "higher", 0},
		{"runner.pool.idle_s", "s", "lower", 0},
		{"go.gc.count", "count", "lower", 0},
		{"go.gc.pause_s", "s", "lower", 0},
	}...)
}()

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0, so layers a workload never touches
// read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
