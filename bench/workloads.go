package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
	"dxbsp/internal/sweep"
)

// stack is the runner stack of one dxbench recipe, composed the way
// cmd/dxbench composes it from its flags.
type stack struct {
	parallel  int  // -parallel
	batch     int  // -batch K; 0: no Batcher
	observe   bool // -metrics-out metrics.json: an Observer plus a JSON export
	surrogate bool // -surrogate auto
	sharded   bool // 2 static shards → sweep.Merge → -resume render
}

// workload is one benchmark recipe.
type workload struct {
	name  string
	why   string
	ids   []string // experiments in render order; nil: the registry minus T3
	quick bool     // always at experiments.QuickConfig scale
	// pinSeed draws the inputs at the default seed whatever -seed says
	// (huge-surrogate: README.md, "Correctness checks").
	pinSeed bool
	stack   stack
	// cli are the dxbench invocations that produce the same bytes: the
	// stdout of every step that renders, joined by blank lines, is the
	// workload's render. DIR stands for a scratch directory.
	cli [][]string
}

var workloads = []*workload{
	{
		name: "expansion-scalar",
		why:  "F6 on -parallel 2 with the cache: 16 open-loop FIFO sims of 65536 requests, so the scalar wheel engine does almost all the work",
		ids:  []string{"F6"}, stack: stack{parallel: 2},
		cli: [][]string{{"-experiment", "F6", "-parallel", "2"}},
	},
	{
		name: "expansion-batched",
		why:  "the same F6 sweep and bytes on -batch 8 -parallel 8, served by the lockstep BatchEngine; a shared sim change that helps one path and costs the other shows here",
		ids:  []string{"F6"}, stack: stack{parallel: 8, batch: 8},
		cli: [][]string{{"-experiment", "F6", "-batch", "8", "-parallel", "8"}},
	},
	{
		name: "expansion-observed",
		why:  "expansion-batched plus the Observer and a JSON metrics export each rep; the probe forces every lane onto the scalar fallback",
		ids:  []string{"F6"}, stack: stack{parallel: 8, batch: 8, observe: true},
		cli: [][]string{{"-experiment", "F6", "-batch", "8", "-parallel", "8", "-metrics-out", "DIR/metrics.json"}},
	},
	{
		name: "huge-surrogate",
		why:  "F14 under -surrogate auto: 1392640 requests per rep, 1310720 of them answered in closed form, so surrogate.Predict and its profile dominate",
		ids:  []string{"F14"}, pinSeed: true, stack: stack{parallel: 2, surrogate: true},
		cli: [][]string{{"-experiment", "F14", "-surrogate", "auto", "-parallel", "2"}},
	},
	{
		name: "disciplines-batched",
		why:  "D1 D2 D3 X13 F5 on -batch 8: windowed, Regulated and DRAM lanes take the lockstep fast path while GPU and section lanes fall back to the scalar engine",
		ids:  []string{"D1", "D2", "D3", "X13", "F5"}, stack: stack{parallel: 8, batch: 8},
		cli: [][]string{
			{"-experiment", "D1", "-batch", "8", "-parallel", "8"},
			{"-experiment", "D2", "-batch", "8", "-parallel", "8"},
			{"-experiment", "D3", "-batch", "8", "-parallel", "8"},
			{"-experiment", "X13", "-batch", "8", "-parallel", "8"},
			{"-experiment", "F5", "-batch", "8", "-parallel", "8"},
		},
	},
	{
		name:  "suite-sharded",
		why:   "quick registry minus T3 on 2 static shards, merge and a -resume render: many small sims, so cache keying, journal, merge and render overheads dominate",
		quick: true, stack: stack{parallel: 2, sharded: true},
		cli: [][]string{
			{"-quick", "-checkpoint", "DIR", "-shard", "0/2", "-parallel", "1"},
			{"-quick", "-checkpoint", "DIR", "-shard", "1/2", "-parallel", "1"},
			{"-merge", "DIR"},
			{"-quick", "-checkpoint", "DIR", "-resume", "-parallel", "2"},
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// config returns the experiment configuration of w at seed.
func (w *workload) config(seed uint64, quick bool) experiments.Config {
	cfg := experiments.DefaultConfig()
	if quick || w.quick {
		cfg = experiments.QuickConfig()
	}
	if !w.pinSeed {
		cfg.Seed = seed
	}
	return cfg
}

// experiments returns w's experiments in render order. T3 is left out of
// the registry sweep because it times the host and so never renders the
// same bytes twice.
func (w *workload) experiments() ([]experiments.Experiment, error) {
	if w.ids == nil {
		var out []experiments.Experiment
		for _, e := range experiments.All() {
			if e.ID != "T3" {
				out = append(out, e)
			}
		}
		return out, nil
	}
	out := make([]experiments.Experiment, len(w.ids))
	for i, id := range w.ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		out[i] = e
	}
	return out, nil
}

// repEnv is what one rep runs with.
type repEnv struct {
	cfg experiments.Config
	m   *meter
	dir string // empty scratch directory for journals and exports
}

// repOut is what one rep produced.
type repOut struct {
	render  []byte
	export  []byte // the metrics export (observe only)
	points  int
	failed  int
	pool    []runner.Stats // one per RunExperiment call
	cache   runner.CacheStats
	journal runner.JournalStats
	merged  int // records sweep.Merge wrote
}

func (o *repOut) addResult(res runner.Result) {
	o.points += res.Stats.Points
	o.failed += res.Stats.Failed
	o.pool = append(o.pool, res.Stats)
}

func (o *repOut) addStores(c *runner.Cache) {
	cs := c.Stats()
	o.cache.Hits += cs.Hits
	o.cache.Misses += cs.Misses
	o.cache.Bypassed += cs.Bypassed
	if c.Journal != nil {
		js := c.Journal.Stats()
		o.journal.Restored += js.Restored
		o.journal.Appended += js.Appended
	}
}

// run executes one full sweep of w on a fresh Runner and Cache.
func (w *workload) run(ctx context.Context, env *repEnv) (repOut, error) {
	exps, err := w.experiments()
	if err != nil {
		return repOut{}, err
	}
	if w.stack.sharded {
		return runSharded(ctx, env, exps)
	}
	return runStack(ctx, env, w.stack, exps)
}

// newRunner is dxbench's Runner: -retries 2, degraded mode, the cache on.
func newRunner(parallel int, cfg experiments.Config) *runner.Runner {
	return &runner.Runner{
		Parallel: parallel,
		Retry:    runner.RetryPolicy{MaxAttempts: 3, Seed: cfg.Seed},
		Degraded: true,
		Cache:    runner.NewCache(),
	}
}

// attach installs the chain below r's cache — an optional Batcher of k
// lanes over the scalar engine — and, when tracing, the cache span above
// it. It returns cfg with the traced cache installed.
func attach(m *meter, r *runner.Runner, cfg experiments.Config, k int, obs *runner.Observer) experiments.Config {
	next := m.layer("sim.engine", nil)
	if k > 1 {
		bt := runner.NewBatcher(k)
		bt.Next = next
		if obs != nil {
			bt.Observe = obs.ObserveBatchLane
		}
		if m.tr != nil {
			hook := bt.Observe
			bt.Observe = func(c sim.Config, pt core.Pattern, reason string) {
				m.tr.lane(reason)
				if hook != nil {
					hook(c, pt, reason)
				}
			}
		}
		next = m.layer("runner.batcher", bt)
	}
	r.Cache.Next = next
	if m.tr != nil {
		cfg.Sim = m.layer("runner.cache", r.Cache)
	}
	return cfg
}

// runStack runs exps in one process, as a plain dxbench invocation does.
func runStack(ctx context.Context, env *repEnv, st stack, exps []experiments.Experiment) (repOut, error) {
	var out repOut
	m := env.m
	r := newRunner(st.parallel, env.cfg)
	if st.surrogate {
		r.Surrogate = runner.SurrogateRouting{Mode: runner.SurrogateAuto}
	}
	var obs *runner.Observer
	if st.observe {
		obs = runner.NewObserver()
		r.Metrics = obs
	}
	if err := runAll(ctx, m, r, attach(m, r, env.cfg, st.batch, obs), exps, &out); err != nil {
		return out, err
	}
	if obs != nil {
		obs.ObserveCache(r.Cache.Stats())
		var err error
		if out.export, err = export(ctx, m, obs, filepath.Join(env.dir, "metrics.json")); err != nil {
			return out, err
		}
	}
	return out, nil
}

// runAll runs exps in order on r and renders them as dxbench does: one
// result after another, separated by blank lines.
func runAll(ctx context.Context, m *meter, r *runner.Runner, cfg experiments.Config, exps []experiments.Experiment, out *repOut) error {
	var buf bytes.Buffer
	for i, e := range exps {
		res, err := r.RunExperiment(ctx, m.wrap(e), cfg)
		if err != nil {
			return err
		}
		out.addResult(res)
		if i > 0 {
			buf.WriteByte('\n')
		}
		m.render(ctx, res.Output, &buf)
	}
	out.render = buf.Bytes()
	out.addStores(r.Cache)
	return nil
}

// export writes the observer's metrics to path as dxbench -metrics-out
// does, and returns the bytes written.
func export(ctx context.Context, m *meter, obs *runner.Observer, path string) ([]byte, error) {
	var buf bytes.Buffer
	err := m.within(ctx, "runner.observer.export", func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := obs.ExportFile(io.MultiWriter(f, &buf), path)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	})
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	return buf.Bytes(), nil
}

const shards = 2

// runSharded is dxbench's static-shard flow with the shards as
// goroutines: each shard runs on Parallel 1 and journals to its own file,
// sweep.Merge combines the journals, and a -resume render on Parallel 2
// replays the merged journal.
func runSharded(ctx context.Context, env *repEnv, exps []experiments.Experiment) (repOut, error) {
	m, fp := env.m, sweep.Fingerprint(env.cfg, exps)
	parts := make([]repOut, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = runShard(ctx, env, exps, sweep.Shard{Index: i, Count: shards}, fp)
		}()
	}
	wg.Wait()
	var out repOut
	for _, p := range parts {
		out.points += p.points
		out.failed += p.failed
		out.pool = append(out.pool, p.pool...)
		out.cache.Hits += p.cache.Hits
		out.cache.Misses += p.cache.Misses
		out.journal.Appended += p.journal.Appended
	}
	if err := errors.Join(errs...); err != nil {
		return out, err
	}

	var ms sweep.MergeStats
	err := m.within(ctx, "sweep.merge", func() (err error) {
		ms, err = sweep.Merge(env.dir, os.Stderr)
		return err
	})
	if err != nil {
		return out, err
	}
	out.merged = ms.Records

	r := newRunner(2, env.cfg)
	var j *runner.Journal
	if err := m.within(ctx, "runner.journal.open", func() (err error) {
		j, err = runner.OpenJournal(env.dir, true, os.Stderr)
		return err
	}); err != nil {
		return out, err
	}
	defer j.Close()
	r.Cache.Journal = j
	err = runAll(ctx, m, r, attach(m, r, env.cfg, 0, nil), exps, &out)
	return out, err
}

// runShard is one dxbench -shard i/n process: every experiment's owned
// points on Parallel 1, journaled, then synced.
func runShard(ctx context.Context, env *repEnv, exps []experiments.Experiment, sh sweep.Shard, fp string) (repOut, error) {
	var out repOut
	m := env.m
	r := newRunner(1, env.cfg)
	var j *runner.Journal
	err := m.within(ctx, "runner.journal.open", func() (err error) {
		j, err = runner.OpenJournalFile(env.dir, runner.ShardJournalName(sh.Index, sh.Count), false, os.Stderr)
		if err != nil {
			return err
		}
		return j.WriteHeader(runner.JournalHeader{Shard: sh.Index, Of: sh.Count, Config: fp})
	})
	if j != nil {
		defer j.Close()
	}
	if err != nil {
		return out, err
	}
	r.Cache.Journal = j
	cfg := attach(m, r, env.cfg, 0, nil)
	for _, e := range exps {
		se := sweep.Apply(m.wrap(e), sh)
		if len(se.Points(cfg)) == 0 {
			continue
		}
		res, err := r.RunExperiment(ctx, se, cfg)
		if err != nil {
			return out, err
		}
		out.addResult(res)
	}
	err = m.within(ctx, "runner.journal.sync", j.Sync)
	out.addStores(r.Cache)
	return out, err
}
