package sweep

import (
	"context"
	"fmt"
	"time"

	"dxbsp/internal/runner"
)

// Worker claims manifest ranges from the shared directory and executes
// them until every range is done. The worker owns no state the sweep
// depends on: everything it produces lands in its own journal file before
// the range's done marker becomes visible, so killing a worker at any
// point loses at most the points of its in-flight range.
type Worker struct {
	// Dir is the shared coordination directory.
	Dir *Dir
	// Manifest is the sweep plan (already verified against this process's
	// configuration).
	Manifest Manifest
	// ID names this worker in leases, events, and its journal file name.
	ID string
	// Exec executes one claimed range: run its points and journal every
	// simulation durably (Journal.Sync) before returning. The CLI wires
	// this to a runner over the range-filtered experiment.
	Exec func(ctx context.Context, rg Range) error
	// Events, when non-nil, receives range_claimed / range_done /
	// worker_done events.
	Events *runner.EventLog
	// Poll is the wait between claim sweeps when nothing was claimable;
	// defaults to TTL/4.
	Poll time.Duration
	// StallHeartbeat is chaos: claim ranges but never renew the lease, so
	// the coordinator must reclaim them out from under a live process.
	StallHeartbeat bool
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return w.Dir.ttl() / 4
}

// Run executes ranges until the sweep completes, returning the number of
// ranges this worker finished. It returns early only on context
// cancellation or an execution error; "another worker holds everything"
// is a wait, not an error.
func (w *Worker) Run(ctx context.Context) (int, error) {
	completed := 0
	for {
		if err := ctx.Err(); err != nil {
			return completed, err
		}
		allDone, claimedAny := true, false
		for _, rg := range w.Manifest.Ranges {
			if err := ctx.Err(); err != nil {
				return completed, err
			}
			if w.Dir.IsDone(rg.ID) {
				continue
			}
			allDone = false
			ok, err := w.Dir.Claim(rg.ID, w.ID)
			if err != nil {
				return completed, err
			}
			if !ok {
				continue
			}
			if w.Dir.IsDone(rg.ID) {
				// Another worker finished the range and released its lease
				// between our done check and our claim.
				if err := w.Dir.Release(rg.ID); err != nil {
					return completed, err
				}
				continue
			}
			claimedAny = true
			w.Events.Emit(runner.Event{Type: "range_claimed", Worker: w.ID, Range: rg.ID, Experiment: rg.Experiment})
			if err := w.runRange(ctx, rg); err != nil {
				// Give the range back: the failure may be ours alone.
				_ = w.Dir.Release(rg.ID)
				return completed, fmt.Errorf("sweep: range %s: %w", rg.ID, err)
			}
			completed++
			w.Events.Emit(runner.Event{Type: "range_done", Worker: w.ID, Range: rg.ID, Experiment: rg.Experiment,
				Points: rg.End - rg.Start})
		}
		if allDone {
			w.Events.Emit(runner.Event{Type: "worker_done", Worker: w.ID, Ranges: completed})
			return completed, nil
		}
		if !claimedAny {
			// Everything undone is leased to someone else; wait for either
			// a done marker or a coordinator reclaim.
			select {
			case <-time.After(w.poll()):
			case <-ctx.Done():
				return completed, ctx.Err()
			}
		}
	}
}

// runRange executes one claimed range under a heartbeat that renews the
// lease at TTL/3 intervals, then publishes the done marker and releases
// the lease. Exec must have made the range's records durable before it
// returns; the marker is what tells the rest of the fleet "these points
// need no re-execution".
func (w *Worker) runRange(ctx context.Context, rg Range) error {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	if !w.StallHeartbeat {
		go func() {
			tick := time.NewTicker(w.Dir.ttl() / 3)
			defer tick.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-tick.C:
					if lost, err := w.Dir.Renew(rg.ID, w.ID); err != nil || lost {
						// Lost the lease (reclaimed and re-claimed): keep
						// executing — duplicate results are identical — but
						// stop touching the other worker's lease.
						return
					}
				}
			}
		}()
	}
	if err := w.Exec(ctx, rg); err != nil {
		return err
	}
	stopHB()
	if err := w.Dir.MarkDone(rg.ID, w.ID); err != nil {
		return err
	}
	return w.Dir.Release(rg.ID)
}
