package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dxbsp/internal/core"
)

// A pattern big enough to guarantee several cancellation polls (the
// simulator checks every cancelCheckEvents dispatched events, and each
// request contributes multiple events).
func bigPattern() core.Pattern {
	return core.NewPattern(seqAddrs(4*cancelCheckEvents), 4)
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Machine: testMachine()}, bigPattern())
	if err == nil {
		t.Fatal("cancelled simulation succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// An expired deadline must surface as context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := RunContext(ctx, Config{Machine: testMachine()}, bigPattern())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// Cancellation polling must not perturb the simulation: an uncancelled
// RunContext and plain Run agree exactly.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := Config{Machine: testMachine(), Window: 8}
	pt := bigPattern()
	want, err := Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RunContext = %+v, Run = %+v", got, want)
	}
}

// A small simulation may finish before the first poll; it must succeed
// even under a cancelled context only if it never reaches a poll — and
// either way must never return a partial result silently.
func TestRunContextSmallPattern(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := RunContext(ctx, Config{Machine: testMachine()}, core.NewPattern(seqAddrs(8), 4))
	if err == nil {
		want, werr := Run(Config{Machine: testMachine()}, core.NewPattern(seqAddrs(8), 4))
		if werr != nil {
			t.Fatal(werr)
		}
		if r != want {
			t.Errorf("uncancelled-completion result %+v differs from Run's %+v", r, want)
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// The lockstep walk polls its context before the first round, so a run
// too short to reach a mid-run poll (1024 requests, under
// batchPollRequests) honors a context cancelled up front — on runPlain
// (open-loop FIFO) and on runMixed (Regulated) alike.
func TestRunBatchCancelledShort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := testMachine()
	pt := core.NewPattern(seqAddrs(1024), 4)
	if pt.N() >= batchPollRequests {
		t.Fatalf("pattern of %d requests is not short", pt.N())
	}
	for _, cfg := range []Config{{Machine: m}, {Machine: m, Bank: BankConfig{Discipline: Regulated}}} {
		_, err := RunContext(ctx, cfg, pt)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", cfg.Bank.Discipline, err)
		} else if !strings.Contains(err.Error(), "batch cancelled") {
			t.Errorf("%s: error %q is not the lockstep walk's", cfg.Bank.Discipline, err)
		}
	}
}
