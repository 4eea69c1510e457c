package main

// Distributed sweep modes of dxbench, built on internal/sweep:
//
//	dxbench -shard 1/4 -checkpoint dir ...          # run every 4th point
//	dxbench -shard 1/4 -checkpoint dir -resume ...  # finish a killed shard
//	dxbench -merge dir                              # merge shard journals
//	dxbench -checkpoint dir -resume ...             # render the full output
//
// Shard runs produce journals, not tables: their stdout stays empty and a
// summary goes to stderr. The final -resume run renders output
// byte-identical to a single-process run by replaying the merged journal
// through the ordinary experiment path, re-executing no simulation.

import (
	"context"
	"fmt"
	"io"
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
	format   string
	logx     bool
	logy     bool
	timing   bool
	timeout  time.Duration
	stdout   io.Writer
	stderr   io.Writer
}

// runMergeMode merges every shard journal in dir into the canonical
// journal.jsonl.
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
	// Install the journal as the run's checkpoint store and wire the chaos
	// hooks (record corruption / torn writes, kill-after-N-appends).
	env.r.Cache.Journal = journal
	if env.injector != nil {
		journal.Corrupt = env.injector.CorruptRecord
		journal.OnAppend = env.injector.KillOnAppend
	}

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
