package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dxbsp/internal/experiments"
)

// trialOpts configures one trial: an untimed cold rep, then timed reps.
type trialOpts struct {
	w         *workload
	cfg       experiments.Config
	budget    time.Duration // timed reps run until this much wall time has passed
	minPoints int           // ...and at least this many RunPoint samples are taken
	trace     bool
	dir       string    // scratch directory private to the trial
	spans     string    // traced: write the spans here as JSONL ("" = keep in memory only)
	exec      time.Time // when the driver started this process; setup_s runs from here
}

// trialResult is what one trial reports to the driver.
type trialResult struct {
	Traced bool `json:"traced"`
	// Seed is the seed the trial's inputs were drawn from.
	Seed   uint64  `json:"seed"`
	SetupS float64 `json:"setup_s"`
	// Per timed rep: wall seconds, RunPoint seconds, process CPU seconds
	// and peak resident set, all as measured.
	RepS   []float64   `json:"rep_s"`
	PointS [][]float64 `json:"point_s"`
	CPUS   []float64   `json:"cpu_s"`
	RSSKB  []int64     `json:"rss_kb"`
	// RefS are the reference kernel's samples (refkernel.go): one before
	// and one after the cold rep, then one after each timed rep.
	RefS         []float64 `json:"ref_s"`
	Requests     int64     `json:"requests_per_rep"`
	Points       int       `json:"points_per_rep"`
	FailedPoints int       `json:"failed_points"`
	// BadReps counts timed reps that failed a correctness check: output,
	// export, request count or (traced) simulated cycles differing from
	// the cold rep's.
	BadReps  int      `json:"bad_reps"`
	Problems []string `json:"problems,omitempty"`
	// StealS is the host's steal time over the timed reps, summed over
	// the machine's CPUs: a diagnostic for noisy runs, not a metric.
	StealS     float64 `json:"steal_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Render     string  `json:"render_sha256"`
	Export     string  `json:"export_sha256,omitempty"`
	// Layers holds the per-layer metrics, each the median over the timed
	// reps; Closure is the median share of a rep's wall time that named
	// layers account for.
	Layers  map[string]float64 `json:"layers,omitempty"`
	Closure float64            `json:"closure,omitempty"`
}

// repResult is one rep's output and measurements.
type repResult struct {
	out      repOut
	wall     float64
	pointS   []float64
	requests int64
	cycles   float64            // traced: sim.cycles_total
	layers   map[string]float64 // traced
	closure  float64            // traced
}

func digest(b []byte) string {
	if b == nil {
		return ""
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runTrial runs one cold rep, then timed reps until the budget is spent.
// Each timed rep starts from the heap a fresh dxbench process starts
// with: no garbage, empty pools, free memory handed back to the OS. So its
// collections, allocations and peak resident set are a fresh run's, not
// an accident of where the previous rep left the collector.
func runTrial(ctx context.Context, o trialOpts) (trialResult, error) {
	res := trialResult{Traced: o.trace, Seed: o.cfg.Seed}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The kernel's first sample pays for faulting its tables in; from then
	// on they stay resident, and the peaks below take them off.
	k0 := time.Now()
	k, err := newRefKernel()
	if err != nil {
		return res, err
	}
	defer k.close()
	k.sample()
	res.RefS = append(res.RefS, k.sample())
	kernelS := time.Since(k0).Seconds()

	cold, err := runRep(ctx, o, tr, 0)
	if err != nil {
		return res, err
	}
	res.SetupS = time.Since(o.exec).Seconds() - kernelS
	res.RefS = append(res.RefS, k.sample())
	res.Render, res.Export = digest(cold.out.render), digest(cold.out.export)
	res.Requests, res.Points = cold.requests, cold.out.points
	minReps := 1
	if cold.out.points > 0 {
		minReps = max(minReps, (o.minPoints+cold.out.points-1)/cold.out.points)
	}

	var layers []map[string]float64
	var closures []float64
	ms0, steal0 := memStats(), stealSeconds()
	start := time.Now()
	for rep := 1; rep <= minReps || time.Since(start) < o.budget; rep++ {
		runtime.GC() // the first collection moves the pools' contents aside, the second frees them
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return res, err
		}
		cpu0 := rusage()
		r, err := runRep(ctx, o, tr, rep)
		if err != nil {
			return res, err
		}
		res.CPUS = append(res.CPUS, rusage()-cpu0)
		peak, err := peakRSSKB()
		if err != nil {
			return res, err
		}
		res.RSSKB = append(res.RSSKB, peak-k.residentKB())
		res.RefS = append(res.RefS, k.sample())
		res.RepS = append(res.RepS, r.wall)
		res.PointS = append(res.PointS, r.pointS)
		res.FailedPoints += r.out.failed
		if why := r.differs(cold); why != "" {
			res.BadReps++
			res.Problems = append(res.Problems, fmt.Sprintf("rep %d: %s", rep, why))
		}
		if tr != nil {
			layers = append(layers, r.layers)
			closures = append(closures, r.closure)
		}
	}
	res.AllocBytes = memStats().TotalAlloc - ms0.TotalAlloc
	res.StealS = stealSeconds() - steal0
	if tr != nil {
		res.Layers = map[string]float64{}
		for _, spec := range perLayer {
			var xs []float64
			for _, l := range layers {
				xs = append(xs, l[spec.name])
			}
			res.Layers[spec.name] = median(xs)
		}
		res.Closure = median(closures)
		if o.spans != "" {
			if err := writeSpans(o.spans, tr.spans); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// differs names the first way r disagrees with the cold rep, or "".
func (r repResult) differs(cold repResult) string {
	switch {
	case !bytes.Equal(r.out.render, cold.out.render):
		return "rendered output differs from the cold rep's"
	case !bytes.Equal(r.out.export, cold.out.export):
		return "metrics export differs from the cold rep's"
	case r.requests != cold.requests:
		return fmt.Sprintf("%d requests, cold rep had %d", r.requests, cold.requests)
	case r.cycles != cold.cycles:
		return fmt.Sprintf("sim.cycles_total %v, cold rep had %v", r.cycles, cold.cycles)
	}
	return ""
}

// runRep runs one full sweep in a fresh scratch directory.
func runRep(ctx context.Context, o trialOpts, tr *tracer, rep int) (repResult, error) {
	dir := filepath.Join(o.dir, "rep")
	if err := os.RemoveAll(dir); err != nil {
		return repResult{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return repResult{}, err
	}
	m := &meter{tr: tr}
	var gc0 runtime.MemStats
	if tr != nil {
		tr.startRep(rep)
		runtime.ReadMemStats(&gc0)
	}
	t0 := time.Now()
	ctx, end := m.begin(ctx, "bench.rep")
	m.ctx = ctx
	out, err := o.w.run(ctx, &repEnv{cfg: o.cfg, m: m, dir: dir})
	end(0)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return repResult{}, fmt.Errorf("%s: %w", o.w.name, err)
	}
	r := repResult{out: out, wall: wall, pointS: m.pointS, requests: m.requests.Load()}
	if tr != nil {
		gc1 := memStats()
		r.cycles = tr.cyclesTotal()
		r.layers, r.closure = layerMetrics(o.w, tr, rep, out, &gc0, &gc1)
	}
	return r, nil
}

// layerMetrics derives the per-layer metrics of one traced rep.
func layerMetrics(w *workload, tr *tracer, rep int, out repOut, gc0, gc1 *runtime.MemStats) (map[string]float64, float64) {
	st := accountSpans(tr.repSpans(rep))
	tr.mu.Lock()
	lanes, routed := tr.lanes, tr.routed
	tr.mu.Unlock()
	l := map[string]float64{
		"sim.engine.calls":          float64(st.calls["sim.engine"]),
		"sim.engine.requests":       float64(st.requests["sim.engine"]),
		"sim.engine.busy_s":         st.busy["sim.engine"],
		"sim.engine.ns_per_request": ratio(st.busy["sim.engine"]*1e9, float64(st.requests["sim.engine"])),
		"sim.cycles_total":          tr.cyclesTotal(),

		"runner.batcher.calls":      float64(st.calls["runner.batcher"]),
		"runner.batcher.fast_lanes": float64(lanes[""]),
		"runner.batcher.fast_ratio": ratio(float64(lanes[""]), float64(st.calls["runner.batcher"])),
		"runner.batcher.self_s":     st.self["runner.batcher"],

		"runner.observer.export_s":         st.busy["runner.observer.export"],
		"runner.surrogate.routed_requests": float64(routed),

		"runner.cache.calls":     float64(st.calls["runner.cache"]),
		"runner.cache.misses":    float64(out.cache.Misses),
		"runner.cache.hit_ratio": out.cache.HitRate(),
		"runner.cache.self_s":    st.self["runner.cache"],

		"runner.journal.open_s":   st.busy["runner.journal.open"],
		"runner.journal.appended": float64(out.journal.Appended),
		"runner.journal.restored": float64(out.journal.Restored),
		"runner.journal.sync_s":   st.busy["runner.journal.sync"],
		"sweep.merge.busy_s":      st.busy["sweep.merge"],
		"sweep.merge.records":     float64(out.merged),

		"tablefmt.render.busy_s":       st.busy["tablefmt.render"],
		"experiments.assemble.busy_s":  st.busy["experiments.assemble"],
		"experiments.points.busy_s":    st.busy["experiments.points"],
		"experiments.run_point.self_s": st.self["experiments.run_point"],

		"go.gc.count":   float64(gc1.NumGC - gc0.NumGC),
		"go.gc.pause_s": float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e9,
	}
	for _, r := range fallbackReasons {
		l["runner.batcher.fallback_lanes."+r] = float64(lanes[r])
	}
	// The span above the router and the probe times whichever of the two
	// the recipe installs; neither installed, its self time is the
	// benchmark's own wrapper and stays unattributed.
	l["runner.observer.self_s"], l["runner.surrogate.self_s"] = 0, 0
	if w.stack.observe {
		l["runner.observer.self_s"] = st.self["runner.request"]
	}
	if w.stack.surrogate {
		l["runner.surrogate.self_s"] = st.self["runner.request"]
	}
	var busy, capacity float64
	for _, s := range out.pool {
		busy += s.Busy.Seconds()
		capacity += s.Wall.Seconds() * float64(s.Workers)
	}
	l["runner.pool.utilization"] = ratio(busy, capacity)
	l["runner.pool.idle_s"] = capacity - busy
	l["runner.surrogate.max_relerr"] = 0 // the driver's re-simulation check fills it

	wall := st.busy["bench.rep"]
	return l, ratio(wall-st.self["bench.rep"], wall)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rusage returns the process's user+system CPU seconds so far.
func rusage() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// peakRSSKB returns the process's peak resident set (VmHWM) since it
// started or since the last resetPeakRSS. Its ru_maxrss would not do: that
// cannot be reset, and the driver starts the child with vfork, so the
// kernel carries the driver's own peak into the child at exec.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS sets the process's peak resident set to its current one.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// stealSeconds returns the machine's cumulative steal time: how long its
// virtual CPUs were ready to run while the hypervisor ran something else.
// It reads 0 where /proc/stat is missing.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}
