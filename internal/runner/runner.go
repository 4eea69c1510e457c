// Package runner executes experiments over a worker pool with memoized
// simulation, preserving the serial path's output byte for byte.
//
// The engine exploits the three-stage experiment decomposition
// (Points/RunPoint/Assemble): Points runs serially — it performs the
// shared-RNG input generation and so must see the draws in sweep order —
// then the points fan out across workers, and Assemble consumes results
// ordered by point index, not completion order. Determinism therefore
// holds for any worker count.
//
// A Cache installed on the Runner memoizes every simulation issued through
// experiments.Config.RunSim, keyed by the full request content (machine,
// config knobs, bank map fingerprint, pattern digest), so baselines shared
// between sweeps — and between experiments — execute once per run.
//
// The runner is also the engine's failure boundary: every point attempt
// runs under a recover() guard and an optional deadline, transient
// failures retry with deterministic seeded backoff (RetryPolicy), and in
// degraded mode a point that exhausts its budget becomes a footnoted cell
// instead of aborting the suite. A Journal on the Cache checkpoints
// completed simulations to disk for crash-safe resume.
package runner

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"dxbsp/internal/experiments"
)

// Runner executes experiments. The zero value runs serially with no
// cache, no progress and no event log, fails fast, and never retries.
type Runner struct {
	// Parallel is the worker count for point execution; values < 1 mean
	// GOMAXPROCS.
	Parallel int
	// Cache, when non-nil, memoizes simulations across points and across
	// experiments for the lifetime of the Runner.
	Cache *Cache
	// Events, when non-nil, receives a JSON event per lifecycle step.
	Events *EventLog
	// Progress, when non-nil, receives human-readable one-line updates as
	// points complete (typically stderr, so stdout stays parseable). The
	// workers write one line at a time, so it need not be safe for
	// concurrent use.
	Progress io.Writer
	// Metrics, when non-nil, collects telemetry: it is attached as a
	// sim.Probe to every simulation issued through the experiment config
	// (above the cache, so the probe rides through injector and cache
	// without affecting cache identity) and receives runner-level
	// observations as points and experiments complete.
	Metrics *Observer

	// Retry bounds re-execution of points whose failure is classified
	// transient (IsTransient). The zero value disables retrying.
	Retry RetryPolicy
	// PointTimeout, when positive, is the deadline for a single point
	// attempt. Expiry is a transient failure (the run is still live), so
	// the retry budget applies.
	PointTimeout time.Duration
	// Degraded keeps the suite running when a point exhausts its retry
	// budget: the failure is recorded as the point's result (rendered as a
	// footnoted cell by Assemble) instead of aborting the experiment.
	// Run-level cancellation still aborts.
	Degraded bool

	// Surrogate routes simulation requests to the closed-form surrogate
	// (internal/surrogate) by mode and size threshold. The router sits
	// outermost — above probe, cache and journal — so routed points skip
	// the whole simulation stack. The zero value routes nothing.
	Surrogate SurrogateRouting
}

// Stats describes one experiment's execution.
type Stats struct {
	// Points is the number of sweep points executed.
	Points int
	// Workers is the number of goroutines the points were spread over.
	Workers int
	// Wall is the experiment's total wall time (Points + RunPoint fan-out
	// + Assemble).
	Wall time.Duration
	// Busy is point execution time summed over workers; Busy/(Wall*Workers)
	// is the pool utilization.
	Busy time.Duration
	// Retries counts point re-executions after transient failures.
	Retries int
	// Failed counts points that exhausted their retry budget (degraded
	// mode only; fail-fast runs abort on the first such point).
	Failed int
}

// Utilization returns the fraction of the pool's wall-time capacity spent
// executing points: 1.0 means every worker was busy for the whole run.
func (s Stats) Utilization() float64 {
	if s.Wall <= 0 || s.Workers <= 0 {
		return 0
	}
	u := float64(s.Busy) / (float64(s.Wall) * float64(s.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// Result couples an experiment's rendered output with its execution stats.
type Result struct {
	ID     string
	Title  string
	Output experiments.Renderable
	Stats  Stats
	// Failed lists the points that exhausted their retry budget, ordered
	// by point index. Non-empty only in degraded mode; the corresponding
	// cells are footnoted in Output.
	Failed []*PointError
}

func (r *Runner) workers() int {
	if r.Parallel >= 1 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runPointOnce executes a single attempt of one point under the panic
// guard and the per-point deadline. A recovered panic becomes a
// *PanicError (permanent: a deterministic point that panicked once will
// panic again); a failure caused by the point deadline alone — the run
// context still live — is marked transient so the retry budget applies.
func (r *Runner) runPointOnce(ctx context.Context, e experiments.Experiment, cfg experiments.Config, p experiments.Point) (res experiments.PointResult, err error) {
	pctx := ctx
	if r.PointTimeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, r.PointTimeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			stack := make([]byte, 64<<10)
			stack = stack[:runtime.Stack(stack, false)]
			err = &PanicError{Value: v, Stack: stack}
		}
	}()
	res, err = e.RunPoint(pctx, cfg, p)
	if err != nil && pctx.Err() != nil && ctx.Err() == nil {
		err = MarkTransient(fmt.Errorf("point deadline (%v) exceeded: %w", r.PointTimeout, err))
	}
	return res, err
}

// runPoint executes one point under the retry policy. On success the
// number of attempts consumed is returned; on failure the error is a
// *PointError carrying the final attempt's cause.
func (r *Runner) runPoint(ctx context.Context, e experiments.Experiment, cfg experiments.Config, p experiments.Point) (experiments.PointResult, int, *PointError) {
	budget := r.Retry.attempts()
	for attempt := 1; ; attempt++ {
		res, err := r.runPointOnce(ctx, e, cfg, p)
		if err == nil {
			return res, attempt, nil
		}
		if attempt >= budget || !IsTransient(err) || ctx.Err() != nil {
			return experiments.PointResult{}, attempt,
				&PointError{Experiment: e.ID, Point: p.Label, Index: p.Index, Attempts: attempt, Err: err}
		}
		idx := p.Index
		r.Events.emit(Event{Type: "point_retry", Experiment: e.ID, Point: p.Label, Index: &idx,
			Attempt: attempt, Error: err.Error()})
		select {
		case <-time.After(r.Retry.Backoff(e.ID, p.Index, attempt)):
		case <-ctx.Done():
			return experiments.PointResult{}, attempt,
				&PointError{Experiment: e.ID, Point: p.Label, Index: p.Index, Attempts: attempt, Err: ctx.Err()}
		}
	}
}

// RunExperiment executes one experiment: Points serially, RunPoint across
// the pool, Assemble on the index-ordered results. The output is
// byte-identical to experiments.Experiment.Run for every worker count.
func (r *Runner) RunExperiment(ctx context.Context, e experiments.Experiment, cfg experiments.Config) (Result, error) {
	if r.Cache != nil && cfg.Sim == nil {
		cfg.Sim = r.Cache
	}
	if r.Metrics != nil {
		cfg.Sim = &probeRunner{next: cfg.Sim, probe: r.Metrics}
	}
	if r.Surrogate.Mode != SurrogateNever {
		cfg.Sim = &surrogateRouter{policy: r.Surrogate, next: cfg.Sim, obs: r.Metrics}
	}
	start := time.Now()

	pts := e.Points(cfg)
	workers := r.workers()
	if workers > len(pts) {
		workers = len(pts)
	}
	if workers < 1 {
		workers = 1
	}
	r.Events.emit(Event{Type: "experiment_start", Experiment: e.ID, Points: len(pts), Workers: workers})

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		results  = make([]experiments.PointResult, len(pts))
		todo     = make(chan int)
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		busy     time.Duration
		retries  int
		failed   []*PointError
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var localBusy time.Duration
			for i := range todo {
				p := pts[i]
				t0 := time.Now()
				res, attempts, perr := r.runPoint(ctx, e, cfg, p)
				d := time.Since(t0)
				localBusy += d
				if r.Metrics != nil {
					r.Metrics.ObservePoint(d)
				}
				mu.Lock()
				retries += attempts - 1
				mu.Unlock()
				idx := p.Index
				if perr != nil {
					if ctx.Err() != nil {
						// The run is being torn down; the cancellation, not
						// this point, is the story.
						continue
					}
					if !r.Degraded {
						fail(perr)
						continue
					}
					results[i] = experiments.PointResult{Index: p.Index, Label: p.Label, Err: perr}
					mu.Lock()
					failed = append(failed, perr)
					mu.Unlock()
					r.Events.emit(Event{Type: "point_failed", Experiment: e.ID, Point: p.Label, Index: &idx,
						Attempt: perr.Attempts, Error: perr.Err.Error()})
				} else {
					results[i] = res
					r.Events.emit(Event{Type: "point_done", Experiment: e.ID, Point: p.Label, Index: &idx,
						DurationMS: float64(d) / float64(time.Millisecond)})
				}
				// Progress lines are written under mu, in done order.
				mu.Lock()
				done++
				if r.Progress != nil {
					status := ""
					if perr != nil {
						status = " FAILED"
					}
					fmt.Fprintf(r.Progress, "[%s] %d/%d %s%s\n", e.ID, done, len(pts), p.Label, status)
				}
				mu.Unlock()
			}
			mu.Lock()
			busy += localBusy
			mu.Unlock()
		}()
	}
dispatch:
	for i := range pts {
		select {
		case todo <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(todo)
	wg.Wait()

	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			firstErr = fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })

	out := e.Assemble(cfg, results)
	st := Stats{Points: len(pts), Workers: workers, Wall: time.Since(start), Busy: busy,
		Retries: retries, Failed: len(failed)}
	if r.Metrics != nil {
		r.Metrics.ObserveExperiment(st)
	}
	r.Events.emit(Event{Type: "experiment_done", Experiment: e.ID, Points: st.Points, Workers: st.Workers,
		DurationMS: float64(st.Wall) / float64(time.Millisecond), Utilization: st.Utilization(),
		Failed: st.Failed})
	return Result{ID: e.ID, Title: e.Title, Output: out, Stats: st, Failed: failed}, nil
}

// RunAll executes the experiments in order, stopping at the first error.
// In degraded mode a point failure is not an error: the experiment's
// output carries footnoted cells and the suite continues. Each
// experiment's points run across the pool; the shared Cache carries
// memoized simulations from one experiment to the next. The final
// "run_done" event carries the cache, failure and checkpoint totals.
func (r *Runner) RunAll(ctx context.Context, exps []experiments.Experiment, cfg experiments.Config) ([]Result, error) {
	out := make([]Result, 0, len(exps))
	for _, e := range exps {
		res, err := r.RunExperiment(ctx, e, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	if r.Metrics != nil && r.Cache != nil {
		r.Metrics.ObserveCache(r.Cache.Stats())
		if r.Cache.Journal != nil {
			r.Metrics.ObserveJournal(r.Cache.Journal.Stats())
		}
	}
	ev := Event{Type: "run_done", Points: totalPoints(out), Failed: totalFailed(out)}
	if r.Cache != nil {
		cs := r.Cache.Stats()
		ev.CacheHits, ev.CacheMisses, ev.CacheBypassed = cs.Hits, cs.Misses, cs.Bypassed
		if r.Cache.Journal != nil {
			js := r.Cache.Journal.Stats()
			ev.CheckpointEntries, ev.CheckpointSkipped = js.Loaded, js.Skipped
			ev.CheckpointRestored, ev.CheckpointAppended = js.Restored, js.Appended
		}
	}
	r.Events.emit(ev)
	return out, nil
}

func totalPoints(rs []Result) int {
	n := 0
	for _, r := range rs {
		n += r.Stats.Points
	}
	return n
}

func totalFailed(rs []Result) int {
	n := 0
	for _, r := range rs {
		n += r.Stats.Failed
	}
	return n
}
