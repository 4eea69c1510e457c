// Command bench is dxbsp's end-to-end benchmark. It rebuilds the runner
// stack of six dxbench recipes (workloads.go) with the same public calls
// cmd/dxbench makes, runs each workload in fresh child processes one at a
// time, checks every output, and prints each metric by name and unit.
// The last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, from a traced trial. Run it from the repository
// root, directly or through bench/run.sh, which keeps the build inside
// bench/.build:
//
//	go run ./bench -workload expansion-scalar -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -sets 2 -out results.json
//
// README.md defines the workloads, the metrics and the layer map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dxbsp/internal/experiments"
)

var defaultSeed = experiments.DefaultConfig().Seed

const (
	// minPointSamples keeps ≥ 16 RunPoint samples beyond point_s_p95.
	minPointSamples = 320
	// closureFloor is the least share of a traced rep's wall time the
	// named layers must account for.
	closureFloor = 0.9
	childTimeout = 150 * time.Second
	// trials is the number of untraced child processes per workload.
	trials = 5
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// driver runs workloads in child processes and judges them.
type driver struct {
	exe     string
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	workdir string
	stdout  io.Writer
	stderr  io.Writer
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names string
	fs.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all)")
	var (
		seed    = fs.Uint64("seed", defaultSeed, "run seed; every input is drawn from it (huge-surrogate's from the default)")
		seconds = fs.Float64("seconds", 10, "timed seconds per workload, split evenly over its trials")
		trace   = fs.Int("trace", 0, "1: report the per-layer metrics of a traced trial, next to an untraced one for the overhead")
		sets    = fs.Int("sets", 1, "measure everything this many times and print each metric's spread against its bound")
		quick   = fs.Bool("quick", false, "run every workload at quick scale (smoke runs)")
		workdir = fs.String("workdir", filepath.Join("bench", ".build", "work"), "directory for journals, exports and span files")
		outPath = fs.String("out", "", "write the raw per-trial samples and the summary as JSON to this file")

		child     = fs.String("child", "", "run one trial of this workload in this process and print it as JSON (the driver's child mode)")
		budget    = fs.Duration("budget", time.Second, "child: timed wall time of the trial")
		minPoints = fs.Int("min-points", 0, "child: take at least this many RunPoint samples")
		execNS    = fs.Int64("exec-ns", 0, "child: Unix time in ns at which the driver started this process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *sets < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if *child != "" {
		if err := runChild(ctx, *child, *seed, *quick, *budget, *minPoints, *trace == 1, *workdir, *execNS, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	sel, err := selectWorkloads(names)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	d := &driver{exe: exe, seed: *seed, seconds: *seconds, trace: *trace == 1,
		quick: *quick, workdir: *workdir, stdout: stdout, stderr: stderr}

	var runs []workloadRun
	for set := 1; set <= *sets; set++ {
		for _, w := range sel {
			r, err := d.measure(ctx, w, set)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			d.print(r)
			runs = append(runs, r)
		}
	}
	if *sets > 1 {
		d.printSpreads(sel, runs)
	}
	res := d.summarize(sel, runs)
	if *outPath != "" {
		rep := struct {
			Seed    uint64        `json:"seed"`
			Seconds float64       `json:"seconds"`
			Trace   bool          `json:"trace"`
			Runs    []workloadRun `json:"runs"`
			Summary result        `json:"summary"`
		}{d.seed, d.seconds, d.trace, runs, res}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *outPath, err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func selectWorkloads(names string) ([]*workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []*workload
	for _, n := range strings.Split(names, ",") {
		w, err := lookupWorkload(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// runChild is one trial, in the child process the driver started.
func runChild(ctx context.Context, name string, seed uint64, quick bool, budget time.Duration, minPoints int,
	trace bool, workdir string, execNS int64, stdout io.Writer) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.RemoveAll(dir)
	o := trialOpts{w: w, cfg: w.config(seed, quick), budget: budget, minPoints: minPoints,
		trace: trace, dir: dir, exec: time.Unix(0, execNS)}
	if trace {
		o.spans = spansPath(workdir, name)
	}
	res, err := runTrial(ctx, o)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

func spansPath(workdir, name string) string {
	return filepath.Join(workdir, "spans", name+".jsonl")
}

// workloadRun is one set's measurement of one workload.
type workloadRun struct {
	Workload string        `json:"workload"`
	Set      int           `json:"set"`
	Trials   []trialResult `json:"trials"`
	// Problems are failed checks that condemn every rep of the run.
	Problems  []string `json:"problems,omitempty"`
	MaxRelErr float64  `json:"model_max_relerr"`
}

// measure runs w's trials, one child process at a time, and checks them.
// Untraced, the budget is split evenly over the trials, each drawing its
// inputs from its own seed (trialSeed); traced, over one untraced and one
// traced trial at the run's seed.
func (d *driver) measure(ctx context.Context, w *workload, set int) (workloadRun, error) {
	r := workloadRun{Workload: w.name, Set: set}
	kinds := make([]bool, trials) // traced?
	minPoints := (minPointSamples + trials - 1) / trials
	if d.trace {
		kinds, minPoints = []bool{false, true}, 0
	}
	if d.quick {
		minPoints = 0
	}
	budget := time.Duration(d.seconds / float64(len(kinds)) * float64(time.Second))
	for j, traced := range kinds {
		seed := d.seed
		if !d.trace {
			seed = trialSeed(d.seed, j)
		}
		t, err := d.spawn(ctx, w, seed, budget, minPoints, traced)
		if err != nil {
			return r, err
		}
		r.Trials = append(r.Trials, t)
	}

	// Trials of one seed must agree, and each seed's output is checked once.
	bySeed := map[uint64]trialResult{}
	var seeds []uint64
	for i, t := range r.Trials {
		if first, ok := bySeed[t.Seed]; !ok {
			bySeed[t.Seed] = t
			seeds = append(seeds, t.Seed)
		} else if t.Render != first.Render || t.Export != first.Export || t.Requests != first.Requests {
			r.Problems = append(r.Problems, fmt.Sprintf("trial %d disagrees with the first trial at its seed on output or request count", i+1))
		}
		if t.Traced && t.Closure < closureFloor && !d.quick {
			r.Problems = append(r.Problems, fmt.Sprintf("named layers account for only %.1f%% of the traced rep time", 100*t.Closure))
		}
	}
	dir := filepath.Join(d.workdir, fmt.Sprintf("check-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	for i, seed := range seeds {
		sub := filepath.Join(dir, strconv.Itoa(i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return r, err
		}
		t := bySeed[seed]
		v, err := check(ctx, w, seed, d.quick, sub, t.Render, t.Export)
		if err != nil {
			return r, fmt.Errorf("%s: checking seed %d: %w", w.name, seed, err)
		}
		for _, p := range v.problems {
			r.Problems = append(r.Problems, fmt.Sprintf("seed %d: %s", seed, p))
		}
		r.MaxRelErr = max(r.MaxRelErr, v.maxRelErr)
	}
	return r, nil
}

// trialSeed is the seed trial j of a run at seed draws its inputs from.
// The first trial keeps the run's seed, so a run at the default seed
// meets the golden digests; the others mix j in. Five inputs per run
// average out how much one draw of the quick registry differs from
// another in size (README.md, "Sampling").
func trialSeed(seed uint64, j int) uint64 { return seed ^ uint64(j)*0x9e3779b97f4a7c15 }

// spawn runs one trial of w in a fresh child process on at most two
// threads and returns its samples.
func (d *driver) spawn(ctx context.Context, w *workload, seed uint64, budget time.Duration, minPoints int, traced bool) (trialResult, error) {
	var res trialResult
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-child", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-budget", budget.String(), "-min-points", strconv.Itoa(minPoints),
		"-trace", trace, "-workdir", d.workdir}
	if d.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, d.exe, append(args, "-exec-ns", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", min(2, runtime.NumCPU())))
	cmd.Stdout, cmd.Stderr = &out, d.stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s trial: %w", w.name, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		return res, fmt.Errorf("%s trial: reading its result: %w", w.name, err)
	}
	return res, nil
}

// tally counts the points attempted and failed over runs: a failed point,
// every point of a rep that failed a check, and every point of a run
// with a failed run-wide check count as failed.
func tally(runs []workloadRun) (attempted, failed int) {
	for _, r := range runs {
		a, f := 0, 0
		for _, t := range r.Trials {
			a += len(t.RepS) * t.Points
			f += t.FailedPoints + t.BadReps*t.Points
		}
		if len(r.Problems) > 0 {
			f = a
		}
		attempted, failed = attempted+a, failed+f
	}
	return attempted, failed
}

func runsOf(runs []workloadRun, name string) []workloadRun {
	var out []workloadRun
	for _, r := range runs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func trialsOf(runs []workloadRun, traced bool) []trialResult {
	var out []trialResult
	for _, r := range runs {
		for _, t := range r.Trials {
			if t.Traced == traced {
				out = append(out, t)
			}
		}
	}
	return out
}

// endToEndOf pools the timed reps of trials ts. Every time is read at
// the reference speed: rep i of a trial is scaled by that trial's
// scale(i), and its set-up by setupScale. point_s_p50 is the median over
// reps of each rep's median point: a sweep's points can fall into groups
// far apart (F14 has two fast and two slow points), and the median of the
// pooled points would then sit on the edges of the two middle groups.
func endToEndOf(ts []trialResult) map[string]float64 {
	var reps, points, repMedians, setups, rss []float64
	var cpu, alloc float64
	var requests int64
	for _, t := range ts {
		for i, rep := range t.RepS {
			f := t.scale(i)
			reps = append(reps, rep*f)
			for _, p := range t.PointS[i] {
				points = append(points, p*f)
			}
			repMedians = append(repMedians, median(t.PointS[i])*f)
			cpu += t.CPUS[i] * f
		}
		setups = append(setups, t.SetupS*t.setupScale())
		for _, kb := range t.RSSKB {
			rss = append(rss, float64(kb)*1024/1e6)
		}
		alloc += float64(t.AllocBytes)
		requests = t.Requests
	}
	n := float64(len(reps))
	return map[string]float64{
		"sim_requests_per_s": ratio(float64(requests)*n, sum(reps)),
		"sweep_s_p50":        median(reps),
		"point_s_p50":        median(repMedians),
		"point_s_p95":        percentile(points, 0.95),
		"cpu_s_per_sweep":    ratio(cpu, n),
		"alloc_mb_per_sweep": ratio(alloc/1e6, n),
		"peak_rss_mb":        median(rss),
		"setup_s":            median(setups),
	}
}

// scale reads timed rep i at the reference speed: the kernel's nominal
// time over the mean of its samples either side of the rep.
func (t trialResult) scale(i int) float64 {
	return refNominalS / ((t.RefS[i+1] + t.RefS[i+2]) / 2)
}

// setupScale reads the set-up at the reference speed, by the samples
// either side of the cold rep.
func (t trialResult) setupScale() float64 { return refNominalS / ((t.RefS[0] + t.RefS[1]) / 2) }

// layersOf takes each per-layer metric's median over traced trials.
func layersOf(ts []trialResult, maxRelErr float64) map[string]float64 {
	l := map[string]float64{}
	for _, spec := range perLayer {
		var xs []float64
		for _, t := range ts {
			xs = append(xs, t.Layers[spec.name])
		}
		l[spec.name] = median(xs)
	}
	l["runner.surrogate.max_relerr"] = maxRelErr
	return l
}

func maxRelErrOf(runs []workloadRun) float64 {
	e := 0.0
	for _, r := range runs {
		e = max(e, r.MaxRelErr)
	}
	return e
}

// result is the machine-read last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize pools every set of every selected workload. Metric keys are
// bare names for one workload and workload/name for several.
func (d *driver) summarize(sel []*workload, runs []workloadRun) result {
	res := result{Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = tally(runs)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, w := range sel {
		mine := runsOf(runs, w.name)
		specs, vals := endToEnd, endToEndOf(trialsOf(mine, false))
		if d.trace {
			specs, vals = perLayer, layersOf(trialsOf(mine, true), maxRelErrOf(mine))
		}
		for _, s := range specs {
			key := s.name
			if len(sel) > 1 {
				key = w.name + "/" + s.name
			}
			res.Metrics[key] = metricValue{vals[s.name], s.unit}
		}
	}
	return res
}

// print writes one workload run's metrics and checks for people.
func (d *driver) print(r workloadRun) {
	out := d.stdout
	plain := trialsOf([]workloadRun{r}, false)
	e2e := endToEndOf(plain)
	reps, samples, steal := 0, 0, 0.0
	var refs []float64
	for _, t := range plain {
		reps += len(t.RepS)
		for _, ps := range t.PointS {
			samples += len(ps)
		}
		steal += t.StealS
		refs = append(refs, t.RefS...)
	}
	attempted, failed := tally([]workloadRun{r})
	fmt.Fprintf(out, "== %s (set %d): %d untraced trial(s), %d timed reps, %d point samples, %d requests/rep ==\n",
		r.Workload, r.Set, len(plain), reps, samples, plain[0].Requests)
	fmt.Fprintf(out, "  host ran at %.3gx the reference speed (%.2g s steal); times below are read at the reference speed\n",
		refNominalS/median(refs), steal)
	for _, s := range endToEnd {
		fmt.Fprintf(out, "  %-28s %-14.6g %s\n", s.name, e2e[s.name], s.unit)
	}
	fmt.Fprintf(out, "  %-28s %-14.6g %s\n", "model_max_relerr", r.MaxRelErr, "ratio")
	fmt.Fprintf(out, "  %-28s %-14.6g %s (%d of %d points)\n", "failed_ratio", ratio(float64(failed), float64(attempted)),
		"ratio", failed, attempted)
	for _, t := range trialsOf([]workloadRun{r}, true) {
		traced := endToEndOf([]trialResult{t})["sweep_s_p50"]
		fmt.Fprintf(out, "  traced: %d reps, layers account for %.1f%% of rep time, tracing overhead %+.1f%% (spans in %s)\n",
			len(t.RepS), 100*t.Closure, 100*(ratio(traced, e2e["sweep_s_p50"])-1), spansPath(d.workdir, r.Workload))
		l := layersOf([]trialResult{t}, r.MaxRelErr)
		for _, s := range perLayer {
			fmt.Fprintf(out, "  %-44s %-14.6g %s\n", s.name, l[s.name], s.unit)
		}
	}
	var problems []string
	for i, t := range r.Trials {
		for _, p := range t.Problems {
			problems = append(problems, fmt.Sprintf("trial %d: %s", i+1, p))
		}
	}
	problems = append(problems, r.Problems...)
	if len(problems) == 0 {
		fmt.Fprintln(out, "  checks: ok")
	}
	for _, p := range problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
}

// printSpreads compares each end-to-end metric's value across sets with
// its bound: the spread is (max − min) / min over the sets.
func (d *driver) printSpreads(sel []*workload, runs []workloadRun) {
	out := d.stdout
	fmt.Fprintln(out, "== spread across sets (max-min)/min vs bound ==")
	exceeded := false
	for _, w := range sel {
		mine := runsOf(runs, w.name) // one per set, in set order
		for _, spec := range endToEnd {
			vals := make([]float64, len(mine))
			shown := make([]string, len(mine))
			for i, r := range mine {
				vals[i] = endToEndOf(trialsOf([]workloadRun{r}, false))[spec.name]
				shown[i] = fmt.Sprintf("%.6g", vals[i])
			}
			lo := slices.Min(vals)
			spread := ratio(slices.Max(vals)-lo, lo)
			verdict := "ok"
			if spread > spec.bound {
				verdict, exceeded = "EXCEEDS", true
			}
			fmt.Fprintf(out, "  %-20s %-20s %-30s spread %5.1f%%  bound %4.0f%%  %s\n",
				w.name, spec.name, strings.Join(shown, " "), 100*spread, 100*spec.bound, verdict)
		}
	}
	if exceeded {
		fmt.Fprintln(out, "  some spreads exceed their bounds: measure longer (-seconds) rather than widening a bound")
	}
}
