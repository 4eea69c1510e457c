package main

// Distributed sweep modes of dxbench, built on internal/sweep:
//
//	dxbench -shard 1/4 -checkpoint dir ...   # static: run every 4th point
//	dxbench -merge dir                       # merge shard/worker journals
//	dxbench -coordinate -checkpoint dir ...  # publish manifest, supervise,
//	                                         # merge, render final output
//	dxbench -worker -checkpoint dir ...      # claim ranges, journal sims
//
// Shard and worker runs produce journals, not tables: their stdout stays
// empty and a summary goes to stderr. The coordinator renders the final
// byte-identical output after merging, by replaying the merged journal
// through the ordinary experiment path with zero re-executed simulations.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"dxbsp/internal/experiments"
	"dxbsp/internal/faults"
	"dxbsp/internal/runner"
	"dxbsp/internal/sweep"
)

// sweepEnv carries the setup run() shares with the suite loop and the
// sweep modes.
type sweepEnv struct {
	cfg      experiments.Config
	todo     []experiments.Experiment
	r        *runner.Runner
	injector *faults.Injector
	dir      string
	resume   bool
	leaseTTL time.Duration
	chunk    int
	workerID string
	format   string
	logx     bool
	logy     bool
	timing   bool
	timeout  time.Duration
	stdout   io.Writer
	stderr   io.Writer
}

// attachJournal installs j as the run's checkpoint store and wires the
// chaos hooks (record corruption / torn writes, kill-after-N-appends).
func (env *sweepEnv) attachJournal(j *runner.Journal) {
	env.r.Cache.Journal = j
	if env.injector != nil {
		j.Corrupt = env.injector.CorruptRecord
		j.OnAppend = env.injector.KillOnAppend
	}
}

// runMergeMode merges every shard and worker journal in dir into the
// canonical journal.jsonl.
func runMergeMode(dir string, stdout, stderr io.Writer) int {
	st, err := sweep.Merge(dir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "dxbench: %v\n", err)
		return exitHard
	}
	fmt.Fprintf(stdout, "merged %d record(s) from %d journal(s) into journal.jsonl (%d duplicate(s), %d skipped)\n",
		st.Records, st.Files, st.Duplicates, st.Skipped)
	return exitOK
}

// runShardMode executes shard sh of every selected experiment, journaling
// into the shard's own journal file. Tables are not rendered — a shard
// sees only a cross-section of each sweep; the merged journal plus a
// -resume render reconstructs the full byte-identical output.
func runShardMode(ctx context.Context, env *sweepEnv, sh sweep.Shard) int {
	journal, err := runner.OpenJournalFile(env.dir, runner.ShardJournalName(sh.Index, sh.Count), env.resume, env.stderr)
	if err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	defer journal.Close()
	hdr := runner.JournalHeader{Shard: sh.Index, Of: sh.Count, Config: sweep.Fingerprint(env.cfg, env.todo)}
	if err := journal.WriteHeader(hdr); err != nil {
		// A resumed shard journal written under a different shard spec or
		// sweep configuration: a usage error, not a silent zero-point run.
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	env.attachJournal(journal)

	points, failed := 0, 0
	for _, e := range env.todo {
		se := sweep.Apply(e, sh)
		if len(se.Points(env.cfg)) == 0 {
			continue
		}
		res, err := env.r.RunExperiment(ctx, se, env.cfg)
		if err != nil {
			fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
			return exitHard
		}
		points += res.Stats.Points
		failed += res.Stats.Failed
	}
	if err := journal.Sync(); err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	js := journal.Stats()
	env.r.Events.Emit(runner.Event{Type: "shard_done", Shard: sh.String(), Points: points, Failed: failed,
		CheckpointAppended: js.Appended, CheckpointRestored: js.Restored, CheckpointSkipped: js.Skipped})
	fmt.Fprintf(env.stderr, "shard %s: %d point(s), %d sim(s) journaled, %d restored, %d corrupt skipped\n",
		sh, points, js.Appended, js.Restored, js.Skipped)
	if failed > 0 {
		fmt.Fprintf(env.stderr, "dxbench: shard completed degraded: %d point(s) failed\n", failed)
		return exitDegraded
	}
	return exitOK
}

// waitManifest polls dir until the coordinator's manifest appears.
func waitManifest(ctx context.Context, dir string) (sweep.Manifest, error) {
	for {
		m, err := sweep.LoadManifest(dir)
		if err == nil {
			return m, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return sweep.Manifest{}, err
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return sweep.Manifest{}, fmt.Errorf("waiting for manifest in %s: %w", dir, ctx.Err())
		}
	}
}

// runWorkerMode joins the sweep coordinated over env.dir: wait for the
// manifest, verify this process is configured identically, then claim and
// execute ranges until the sweep completes.
func runWorkerMode(ctx context.Context, env *sweepEnv) int {
	man, err := waitManifest(ctx, env.dir)
	if err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	if err := man.VerifyConfig(env.cfg, env.todo); err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	// Resume this worker's own journal: a restarted worker (same id)
	// skips every simulation it already journaled.
	journal, err := runner.OpenJournalFile(env.dir, runner.WorkerJournalName(env.workerID), true, env.stderr)
	if err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	defer journal.Close()
	if err := journal.WriteHeader(runner.JournalHeader{Worker: env.workerID, Config: man.Config}); err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	env.attachJournal(journal)

	byID := make(map[string]experiments.Experiment, len(env.todo))
	for _, e := range env.todo {
		byID[e.ID] = e
	}
	failed := 0
	stall := env.injector != nil && env.injector.Spec().StallHeartbeat
	w := &sweep.Worker{
		Dir:            &sweep.Dir{Path: env.dir, TTL: env.leaseTTL},
		Manifest:       man,
		ID:             env.workerID,
		Events:         env.r.Events,
		StallHeartbeat: stall,
		Exec: func(ctx context.Context, rg sweep.Range) error {
			e, ok := byID[rg.Experiment]
			if !ok {
				return fmt.Errorf("manifest names experiment %q this worker does not have", rg.Experiment)
			}
			res, err := env.r.RunExperiment(ctx, sweep.ApplyRange(e, rg.Start, rg.End), env.cfg)
			if err != nil {
				return err
			}
			// Degraded points stay the worker's problem to report; the
			// range is still done — a deterministic permanent failure would
			// kill every worker that reclaims it, wedging the sweep.
			failed += res.Stats.Failed
			return journal.Sync()
		},
	}
	ranges, err := w.Run(ctx)
	if err != nil {
		fmt.Fprintf(env.stderr, "dxbench: worker %s: %v\n", env.workerID, err)
		return exitHard
	}
	js := journal.Stats()
	fmt.Fprintf(env.stderr, "worker %s: %d range(s) completed, %d sim(s) journaled, %d restored\n",
		env.workerID, ranges, js.Appended, js.Restored)
	if failed > 0 {
		fmt.Fprintf(env.stderr, "dxbench: worker completed degraded: %d point(s) failed\n", failed)
		return exitDegraded
	}
	return exitOK
}

// runCoordinatorMode publishes the manifest, supervises workers (reclaims
// expired leases) until every range is done, merges the journals, and
// renders the full suite from the merged journal — output byte-identical
// to a single-process run, with zero re-executed simulations.
func runCoordinatorMode(ctx context.Context, env *sweepEnv) int {
	man, err := sweep.WriteManifest(env.dir, sweep.BuildManifest(env.cfg, env.todo, env.chunk))
	if err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	coord := &sweep.Coordinator{
		Dir:      &sweep.Dir{Path: env.dir, TTL: env.leaseTTL},
		Manifest: man,
		Events:   env.r.Events,
		Progress: env.stderr,
	}
	st, err := coord.Run(ctx)
	if err != nil {
		fmt.Fprintf(env.stderr, "dxbench: coordinator: %v\n", err)
		return exitHard
	}
	ms, err := sweep.Merge(env.dir, env.stderr)
	if err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	env.r.Events.Emit(runner.Event{Type: "merge_done", Points: ms.Records, Reclaimed: st.Reclaimed,
		CheckpointSkipped: ms.Skipped})
	fmt.Fprintf(env.stderr, "sweep: merged %d record(s) from %d journal(s) (%d duplicate(s), %d skipped), %d lease(s) reclaimed\n",
		ms.Records, ms.Files, ms.Duplicates, ms.Skipped, st.Reclaimed)

	// Final render: replay the merged journal through the ordinary path.
	journal, err := runner.OpenJournal(env.dir, true, env.stderr)
	if err != nil {
		fmt.Fprintf(env.stderr, "dxbench: %v\n", err)
		return exitHard
	}
	defer journal.Close()
	env.attachJournal(journal)
	results, ok := env.runSuite(ctx)
	if !ok {
		return exitHard
	}
	if env.timing {
		printSummary(env.stderr, env.r, results)
	}
	if failed := totalFailed(results); failed > 0 {
		fmt.Fprintf(env.stderr, "dxbench: completed degraded: %d point(s) failed (see footnotes)\n", failed)
		return exitDegraded
	}
	return exitOK
}
