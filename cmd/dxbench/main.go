// Command dxbench regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	dxbench                  # run every experiment at paper scale
//	dxbench -experiment F6   # run one experiment
//	dxbench -discipline dram # run one bank discipline's experiment family
//	dxbench -list            # list experiment IDs and titles
//	dxbench -quick           # reduced sweep sizes
//	dxbench -n 65536         # bulk operation size
//	dxbench -seed 7          # RNG seed
//	dxbench -parallel 8      # worker count (default GOMAXPROCS)
//	dxbench -batch 16        # report lockstep batch-efficacy metrics
//	dxbench -progress        # per-point progress on stderr
//	dxbench -timing          # per-experiment timing + run summary
//	dxbench -events run.json # JSON-lines event log
//	dxbench -retries 3       # per-point retry budget for transient failures
//	dxbench -point-timeout 30s  # deadline per point attempt
//	dxbench -chaos error=0.1 # deterministic fault injection (chaos testing)
//	dxbench -checkpoint DIR  # journal results for crash-safe resume
//	dxbench -checkpoint DIR -resume  # resume from a prior journal
//	dxbench -checkpoint DIR -shard 1/4   # static shard: every 4th point
//	dxbench -merge DIR               # merge shard journals
//	dxbench -surrogate auto  # route large eligible points to the closed form
//	dxbench -surrogate auto -experiment F14  # huge grid, interactive
//	dxbench -metrics         # append bank heatmap + metric series report
//	dxbench -metrics-out m.json      # export metrics (JSON; .om/.txt: OpenMetrics)
//	dxbench -cpuprofile cpu.pprof    # CPU profile of the run (go tool pprof)
//	dxbench -memprofile mem.pprof    # heap profile written at exit
//	dxbench -trace trace.out         # execution trace (go tool trace)
//
// Experiments fan out over a worker pool; output is byte-identical for
// every -parallel value, because results are assembled in sweep order and
// all shared random draws happen before the fan-out. A content-keyed cache
// (disable with -nocache) executes each distinct simulation once per run,
// even when several sweeps share a baseline. The same contract covers
// -metrics and -metrics-out: the exported series are a pure function of
// the set of distinct simulations, so they too are byte-identical across
// worker counts, cache settings, and surviving transient -chaos faults.
//
// The run is resilient: a point that panics or keeps failing is rendered
// as a footnoted FAILED cell and the suite continues. Exit codes: 0 means
// every point succeeded, 1 a hard failure (bad usage, run cancelled or
// timed out, I/O error), 2 a run that completed degraded — output was
// produced but at least one point failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"dxbsp/internal/experiments"
	"dxbsp/internal/faults"
	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
	"dxbsp/internal/sweep"
	"dxbsp/internal/tablefmt"
)

// Exit codes of the dxbench contract.
const (
	exitOK       = 0
	exitHard     = 1
	exitDegraded = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and arguments, for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("experiment", "", "experiment ID to run (default: all)")
		discName = fs.String("discipline", "", "run the experiment family for one bank discipline (fifo, dram, regulated, gpu)")
		list     = fs.Bool("list", false, "list experiments and exit")
		quick    = fs.Bool("quick", false, "use reduced sweep sizes")
		n        = fs.Int("n", 0, "bulk operation size (default 65536, or 4096 with -quick)")
		seed     = fs.Uint64("seed", 0, "random seed (default: built-in)")
		format   = fs.String("format", "text", "output format: text, csv, or plot (ASCII chart)")
		logx     = fs.Bool("logx", false, "log-scale x axis for -format plot")
		logy     = fs.Bool("logy", false, "log-scale y axis for -format plot")
		parallel = fs.Int("parallel", 0, "worker goroutines per experiment (default: GOMAXPROCS)")
		progress = fs.Bool("progress", false, "report per-point progress on stderr")
		timing   = fs.Bool("timing", false, "append per-experiment timing lines and a run summary")
		events   = fs.String("events", "", "write a JSON-lines event log to this file")
		nocache  = fs.Bool("nocache", false, "disable the memoized simulation cache")
		batchK   = fs.Int("batch", 0, "classify simulations for the lockstep batch-efficacy metrics (0 or 1: off); every eligible simulation takes the lockstep walk either way")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0: no limit)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		traceFile  = fs.String("trace", "", "write a runtime execution trace to this file")

		retries    = fs.Int("retries", 2, "retries per point for transient failures")
		pointLimit = fs.Duration("point-timeout", 0, "deadline per point attempt (0: no limit)")
		chaos      = fs.String("chaos", "", "inject deterministic faults: a rate (\"0.1\") or k=v pairs (panic/error/delay/cancel/corrupt/seed/maxdelay/repeat)")
		checkpoint = fs.String("checkpoint", "", "journal completed simulations to this directory")
		resume     = fs.Bool("resume", false, "reuse results from an existing -checkpoint journal")

		shardSpec = fs.String("shard", "", "run one static shard i/n of every experiment's points, journaling to a per-shard file (requires -checkpoint)")
		mergeDir  = fs.String("merge", "", "merge the shard journals in this directory into journal.jsonl, then exit")

		showMetrics = fs.Bool("metrics", false, "append an observability report: bank heatmap, metric series, cycle summary")
		metricsOut  = fs.String("metrics-out", "", "export metric series to this file (.json: JSON, otherwise OpenMetrics text)")

		surrMode = fs.String("surrogate", "never",
			"route eligible points to the closed-form surrogate: never, auto (above -surrogate-threshold), or always")
		surrThreshold = fs.Int("surrogate-threshold", 0,
			fmt.Sprintf("request count at which -surrogate auto routes a point (default %d)", runner.DefaultSurrogateThreshold))
	)
	if err := fs.Parse(args); err != nil {
		return exitHard
	}
	// Counts and durations have no meaning below zero; reject them rather
	// than let a default silently stand in.
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"n", *n < 0}, {"parallel", *parallel < 0}, {"retries", *retries < 0},
		{"batch", *batchK < 0}, {"surrogate-threshold", *surrThreshold < 0},
		{"timeout", *timeout < 0}, {"point-timeout", *pointLimit < 0},
	} {
		if f.negative {
			fmt.Fprintf(stderr, "dxbench: -%s must not be negative, got %s\n", f.name, fs.Lookup(f.name).Value)
			return exitHard
		}
	}
	if *format != "text" && *format != "csv" && *format != "plot" {
		fmt.Fprintf(stderr, "dxbench: unknown format %q\n", *format)
		return exitHard
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(stderr, "dxbench: -resume requires -checkpoint")
		return exitHard
	}
	if *checkpoint != "" && *nocache {
		fmt.Fprintln(stderr, "dxbench: -checkpoint requires the cache; drop -nocache")
		return exitHard
	}
	if *shardSpec != "" && *mergeDir != "" {
		fmt.Fprintln(stderr, "dxbench: -shard and -merge are mutually exclusive")
		return exitHard
	}
	var shard sweep.Shard
	if *shardSpec != "" {
		var err error
		if shard, err = sweep.ParseShard(*shardSpec); err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
	}
	if *shardSpec != "" && *checkpoint == "" {
		fmt.Fprintln(stderr, "dxbench: -shard requires -checkpoint")
		return exitHard
	}
	if (*shardSpec != "" || *mergeDir != "") && (*showMetrics || *metricsOut != "") {
		fmt.Fprintln(stderr, "dxbench: -metrics is not available in sweep modes; render metrics afterwards with -checkpoint DIR -resume -metrics")
		return exitHard
	}

	// Profiling hooks: these observe the real experiment mix (runner fan-
	// out, cache, simulator), which microbenches cannot. All three finish
	// via defers, so every return path below yields loadable files.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		defer func() {
			runtime.GC() // materialize the retained heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "dxbench: writing heap profile: %v\n", err)
			}
			f.Close()
		}()
	}

	surrogateMode, err := runner.ParseSurrogateMode(*surrMode)
	if err != nil {
		fmt.Fprintf(stderr, "dxbench: %v\n", err)
		return exitHard
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Huge() {
			fmt.Fprintf(stdout, "%-4s %s (huge: run with -surrogate auto)\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	todo := experiments.All()
	if *expID != "" && *discName != "" {
		fmt.Fprintln(stderr, "dxbench: -experiment and -discipline are mutually exclusive")
		return exitHard
	}
	if *expID != "" {
		e, ok := experiments.Lookup(*expID)
		if !ok {
			fmt.Fprintf(stderr, "dxbench: unknown experiment %q (use -list)\n", *expID)
			return exitHard
		}
		todo = []experiments.Experiment{e}
	}
	if *discName != "" {
		d, err := sim.ParseDiscipline(*discName)
		if err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		todo = experiments.ForDiscipline(d)
	}

	r := &runner.Runner{
		Parallel: *parallel,
		Retry:    runner.RetryPolicy{MaxAttempts: *retries + 1, Seed: cfg.Seed},
		// The suite keeps going when a point exhausts its budget: the cell
		// is footnoted and the run exits with code 2.
		Degraded:     true,
		PointTimeout: *pointLimit,
		Surrogate:    runner.SurrogateRouting{Mode: surrogateMode, Threshold: *surrThreshold},
	}
	if !*nocache {
		r.Cache = runner.NewCache()
	}
	var obs *runner.Observer
	if *showMetrics || *metricsOut != "" {
		obs = runner.NewObserver()
		r.Metrics = obs
	}
	if *progress {
		r.Progress = stderr
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		defer f.Close()
		r.Events = runner.NewEventLog(f)
	}

	// Compose the downstream simulation chain bottom-up: cache → faults →
	// batcher → engine. The batcher only classifies each simulation for
	// the batch-efficacy metrics and forwards it; sim.RunContext picks the
	// lockstep walk or the event engine. It sits below the cache and the
	// fault injector, so it sees only the simulations that actually run.
	// Every layer is byte-transparent, so output is identical for any
	// -batch K, worker count, and chaos/resume combination.
	var next experiments.SimRunner
	if *batchK > 1 {
		bt := runner.NewBatcher(*batchK)
		if obs != nil {
			bt.Observe = obs.ObserveBatchLane
		}
		next = bt
	}
	var injector *faults.Injector
	if *chaos != "" {
		spec, err := faults.ParseSpec(*chaos)
		if err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		injector = faults.New(spec, next, r.Events)
		next = injector
	}
	if next != nil {
		if r.Cache != nil {
			r.Cache.Next = next
		} else {
			cfg.Sim = next
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *mergeDir != "" {
		return runMergeMode(*mergeDir, stdout, stderr)
	}
	env := &sweepEnv{cfg: cfg, todo: todo, r: r, injector: injector,
		dir: *checkpoint, resume: *resume, format: *format, logx: *logx, logy: *logy,
		timing: *timing, timeout: *timeout, stdout: stdout, stderr: stderr}
	if *shardSpec != "" {
		return runShardMode(ctx, env, shard)
	}

	if *checkpoint != "" {
		journal, err := runner.OpenJournal(*checkpoint, *resume, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		defer journal.Close()
		r.Cache.Journal = journal
		if injector != nil {
			journal.Corrupt = injector.CorruptRecord
		}
		if *resume {
			js := journal.Stats()
			r.Events.Emit(runner.Event{Type: "checkpoint_loaded",
				CheckpointEntries: js.Loaded, CheckpointSkipped: js.Skipped})
		}
	}

	results, ok := env.runSuite(ctx)
	if !ok {
		return exitHard
	}
	if *showMetrics {
		fmt.Fprintln(stdout)
		if err := obs.WriteReport(stdout); err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(stderr, "dxbench: %v\n", err)
			return exitHard
		}
		werr := obs.ExportFile(f, *metricsOut)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "dxbench: writing %s: %v\n", *metricsOut, werr)
			return exitHard
		}
	}
	if *timing {
		printSummary(stderr, r, results)
		if obs != nil {
			obs.WritePointLatency(stderr)
		}
	}
	if injector != nil && *timing {
		fmt.Fprintf(stderr, "  faults injected: %s\n", injector.Stats())
	}
	if failed := totalFailed(results); failed > 0 {
		fmt.Fprintf(stderr, "dxbench: completed degraded: %d point(s) failed (see footnotes)\n", failed)
		return exitDegraded
	}
	return exitOK
}

// runSuite runs env.todo in order, rendering each experiment as it
// completes (with its -timing footer), then emits the run_done event
// with the point, failure, cache and checkpoint totals. It stops at the
// first error, reports it on stderr, and returns ok=false.
func (env *sweepEnv) runSuite(ctx context.Context) (results []runner.Result, ok bool) {
	r := env.r
	results = make([]runner.Result, 0, len(env.todo))
	for i, e := range env.todo {
		if i > 0 {
			fmt.Fprintln(env.stdout)
		}
		res, err := r.RunExperiment(ctx, e, env.cfg)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(env.stderr, "dxbench: timeout after %v: %v\n", env.timeout, err)
			} else {
				fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
			}
			return nil, false
		}
		results = append(results, res)
		renderResult(env.stdout, env.stderr, res.Output, e.ID, env.format, env.logx, env.logy)
		if env.timing {
			// The timing footer is a comment in CSV so the output stays
			// machine-parseable; text and plot get the bare line.
			prefix := ""
			if env.format == "csv" {
				prefix = "# "
			}
			fmt.Fprintf(env.stdout, "%s[%s in %v]\n", prefix, e.ID, res.Stats.Wall.Round(time.Millisecond))
		}
	}

	summary := runner.Event{Type: "run_done", Points: totalPoints(results), Failed: totalFailed(results)}
	if r.Cache != nil {
		cs := r.Cache.Stats()
		summary.CacheHits, summary.CacheMisses, summary.CacheBypassed = cs.Hits, cs.Misses, cs.Bypassed
		if r.Metrics != nil {
			r.Metrics.ObserveCache(cs)
		}
		if r.Cache.Journal != nil {
			js := r.Cache.Journal.Stats()
			summary.CheckpointEntries, summary.CheckpointSkipped = js.Loaded, js.Skipped
			summary.CheckpointRestored, summary.CheckpointAppended = js.Restored, js.Appended
			if r.Metrics != nil {
				r.Metrics.ObserveJournal(js)
			}
		}
	}
	r.Events.Emit(summary)
	return results, true
}

// renderResult writes one experiment result in the requested format.
func renderResult(stdout, stderr io.Writer, out experiments.Renderable, id, format string, logx, logy bool) {
	switch format {
	case "csv":
		if c, ok := out.(tablefmt.CSVRenderer); ok {
			c.RenderCSV(stdout)
			return
		}
	case "plot":
		opt := tablefmt.PlotOptions{LogX: logx, LogY: logy}
		if tbl, ok := out.(*tablefmt.Table); ok && tablefmt.PlotTable(stdout, tbl, nil, opt) {
			return
		}
		if ser, ok := out.(*tablefmt.Series); ok {
			ser.RenderPlot(stdout, opt)
			return
		}
		fmt.Fprintf(stderr, "dxbench: %s is not plottable; falling back to text\n", id)
	}
	out.Render(stdout)
}

// printSummary reports the run's execution statistics on stderr: per-
// experiment wall time and pool utilization, then cache, retry and
// checkpoint effectiveness.
func printSummary(w io.Writer, r *runner.Runner, results []runner.Result) {
	fmt.Fprintln(w, "run summary:")
	var wall time.Duration
	for _, res := range results {
		wall += res.Stats.Wall
		status := ""
		if res.Stats.Failed > 0 {
			status = fmt.Sprintf("  %d FAILED", res.Stats.Failed)
		}
		fmt.Fprintf(w, "  %-4s %3d point(s) on %d worker(s) in %8v  (util %3.0f%%)%s\n",
			res.ID, res.Stats.Points, res.Stats.Workers,
			res.Stats.Wall.Round(time.Millisecond), 100*res.Stats.Utilization(), status)
	}
	fmt.Fprintf(w, "  total: %d experiment(s), %d point(s) in %v\n",
		len(results), totalPoints(results), wall.Round(time.Millisecond))
	if retries, failed := totalRetries(results), totalFailed(results); retries > 0 || failed > 0 {
		fmt.Fprintf(w, "  resilience: %d retry(ies), %d point(s) failed\n", retries, failed)
	}
	if r.Cache != nil {
		cs := r.Cache.Stats()
		fmt.Fprintf(w, "  cache: %d hit(s), %d miss(es), %d bypassed (hit rate %.1f%%)\n",
			cs.Hits, cs.Misses, cs.Bypassed, 100*cs.HitRate())
		if r.Cache.Journal != nil {
			js := r.Cache.Journal.Stats()
			fmt.Fprintf(w, "  checkpoint: %d entry(ies), %d restored, %d appended, %d corrupt skipped\n",
				js.Loaded, js.Restored, js.Appended, js.Skipped)
		}
	}
}

func totalPoints(rs []runner.Result) int {
	n := 0
	for _, r := range rs {
		n += r.Stats.Points
	}
	return n
}

func totalFailed(rs []runner.Result) int {
	n := 0
	for _, r := range rs {
		n += r.Stats.Failed
	}
	return n
}

func totalRetries(rs []runner.Result) int {
	n := 0
	for _, r := range rs {
		n += r.Stats.Retries
	}
	return n
}
