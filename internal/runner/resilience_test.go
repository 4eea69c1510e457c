package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dxbsp/internal/experiments"
	"dxbsp/internal/tablefmt"
)

// fakeExperiment builds an experiment with n points whose RunPoint is
// supplied by the test; Assemble renders one row per point so output
// comparisons catch any misplaced or missing result.
func fakeExperiment(n int, runPoint func(ctx context.Context, p experiments.Point, attempt int) error) experiments.Experiment {
	var mu sync.Mutex
	attempts := map[int]int{}
	return experiments.Experiment{
		ID:    "FAKE",
		Title: "synthetic resilience experiment",
		Points: func(experiments.Config) []experiments.Point {
			pts := make([]experiments.Point, n)
			for i := range pts {
				pts[i] = experiments.Point{Index: i, Label: fmt.Sprintf("p%d", i)}
			}
			return pts
		},
		RunPoint: func(ctx context.Context, cfg experiments.Config, p experiments.Point) (experiments.PointResult, error) {
			mu.Lock()
			attempts[p.Index]++
			a := attempts[p.Index]
			mu.Unlock()
			if err := runPoint(ctx, p, a); err != nil {
				return experiments.PointResult{}, err
			}
			return experiments.PointResult{Index: p.Index, Label: p.Label}, nil
		},
		Assemble: func(cfg experiments.Config, results []experiments.PointResult) experiments.Renderable {
			t := tablefmt.New("fake", "point", "status")
			for _, r := range results {
				if r.Err != nil {
					ref := t.AddFootnote(fmt.Sprintf("%s: %v", r.Label, r.Err))
					t.AddRow(r.Label, fmt.Sprintf("FAILED [%d]", ref))
					continue
				}
				t.AddRow(r.Label, "ok")
			}
			return t
		},
	}
}

// A panicking point must not take down the run: in degraded mode the
// suite completes, the point is footnoted, and the failure carries the
// recovered panic.
func TestPanicIsolation(t *testing.T) {
	e := fakeExperiment(5, func(_ context.Context, p experiments.Point, _ int) error {
		if p.Index == 2 {
			panic("boom at point 2")
		}
		return nil
	})
	r := &Runner{Parallel: 3, Degraded: true}
	res, err := r.RunExperiment(context.Background(), e, experiments.Config{})
	if err != nil {
		t.Fatalf("degraded run failed hard: %v", err)
	}
	if res.Stats.Failed != 1 || len(res.Failed) != 1 {
		t.Fatalf("Failed = %d / %d entries, want 1", res.Stats.Failed, len(res.Failed))
	}
	var pe *PanicError
	if !errors.As(res.Failed[0], &pe) || fmt.Sprint(pe.Value) != "boom at point 2" {
		t.Errorf("failure %v does not carry the panic", res.Failed[0])
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError has no stack")
	}
	out := render(t, res.Output)
	if !strings.Contains(out, "FAILED [1]") || !strings.Contains(out, "boom at point 2") {
		t.Errorf("output not footnoted:\n%s", out)
	}
}

// Without degraded mode a panic is still recovered — the process
// survives — but the experiment fails with a *PointError.
func TestPanicFailsFastWhenNotDegraded(t *testing.T) {
	e := fakeExperiment(3, func(_ context.Context, p experiments.Point, _ int) error {
		if p.Index == 1 {
			panic("boom")
		}
		return nil
	})
	r := &Runner{Parallel: 2}
	_, err := r.RunExperiment(context.Background(), e, experiments.Config{})
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PointError", err)
	}
	var panicErr *PanicError
	if !errors.As(err, &panicErr) {
		t.Errorf("error %v does not unwrap to the panic", err)
	}
}

// Transient failures are retried within the budget and the point
// ultimately succeeds; the retries are counted and logged.
func TestRetryTransient(t *testing.T) {
	e := fakeExperiment(4, func(_ context.Context, p experiments.Point, attempt int) error {
		if p.Index%2 == 0 && attempt < 3 {
			return MarkTransient(fmt.Errorf("flaky %s attempt %d", p.Label, attempt))
		}
		return nil
	})
	var log strings.Builder
	r := &Runner{
		Parallel: 2,
		Retry:    RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		Events:   NewEventLog(&log),
	}
	res, err := r.RunExperiment(context.Background(), e, experiments.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 0 {
		t.Errorf("Failed = %d, want 0", res.Stats.Failed)
	}
	if want := 4; res.Stats.Retries != want { // points 0 and 2, two retries each
		t.Errorf("Retries = %d, want %d", res.Stats.Retries, want)
	}
	if !strings.Contains(log.String(), `"point_retry"`) {
		t.Errorf("no point_retry events:\n%s", log.String())
	}
}

// A permanent error must not consume retry budget.
func TestPermanentErrorNotRetried(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	e := fakeExperiment(1, func(_ context.Context, _ experiments.Point, _ int) error {
		mu.Lock()
		calls++
		mu.Unlock()
		return fmt.Errorf("deterministic failure")
	})
	r := &Runner{Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}, Degraded: true}
	res, err := r.RunExperiment(context.Background(), e, experiments.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("permanent error executed %d times", calls)
	}
	if len(res.Failed) != 1 || res.Failed[0].Attempts != 1 {
		t.Errorf("Failed = %+v, want one single-attempt failure", res.Failed)
	}
}

// A point that exhausts its budget on transient errors fails with the
// attempt count and the last cause.
func TestRetryBudgetExhausted(t *testing.T) {
	e := fakeExperiment(1, func(_ context.Context, _ experiments.Point, attempt int) error {
		return MarkTransient(fmt.Errorf("still flaky (attempt %d)", attempt))
	})
	r := &Runner{Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}, Degraded: true}
	res, err := r.RunExperiment(context.Background(), e, experiments.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("Failed = %+v", res.Failed)
	}
	f := res.Failed[0]
	if f.Attempts != 3 || !strings.Contains(f.Error(), "after 3 attempt(s)") {
		t.Errorf("failure %v, want 3 attempts", f)
	}
}

// Degraded output is deterministic: the same failures land in the same
// cells for any worker count.
func TestDegradedDeterministicAcrossWorkers(t *testing.T) {
	mk := func() experiments.Experiment {
		return fakeExperiment(9, func(_ context.Context, p experiments.Point, _ int) error {
			if p.Index%3 == 0 {
				return fmt.Errorf("bad point %d", p.Index)
			}
			return nil
		})
	}
	var want string
	for i, workers := range []int{1, 3, 8} {
		r := &Runner{Parallel: workers, Degraded: true}
		res, err := r.RunExperiment(context.Background(), mk(), experiments.Config{})
		if err != nil {
			t.Fatal(err)
		}
		out := render(t, res.Output)
		if i == 0 {
			want = out
			if !strings.Contains(want, "FAILED") {
				t.Fatalf("no failures rendered:\n%s", want)
			}
			continue
		}
		if out != want {
			t.Errorf("workers=%d output differs:\n--- want ---\n%s\n--- got ---\n%s", workers, want, out)
		}
	}
}

// The per-point deadline is transient (the run is still live), so a slow
// point is retried; a fast retry then succeeds.
func TestPointTimeoutRetried(t *testing.T) {
	e := fakeExperiment(1, func(ctx context.Context, _ experiments.Point, attempt int) error {
		if attempt == 1 {
			<-ctx.Done() // stall until the point deadline fires
			return ctx.Err()
		}
		return nil
	})
	r := &Runner{
		PointTimeout: 20 * time.Millisecond,
		Retry:        RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
	}
	res, err := r.RunExperiment(context.Background(), e, experiments.Config{})
	if err != nil {
		t.Fatalf("timed-out point not retried: %v", err)
	}
	if res.Stats.Retries != 1 {
		t.Errorf("Retries = %d, want 1", res.Stats.Retries)
	}
}

// Mid-suite cancellation: deterministic partial results, a context error,
// and no goroutine leaks.
func TestCancellationCleanShutdown(t *testing.T) {
	before := runtime.NumGoroutine()

	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	e := fakeExperiment(16, func(ctx context.Context, _ experiments.Point, _ int) error {
		once.Do(func() { close(started) })
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	})
	r := &Runner{Parallel: 4}
	done := make(chan error, 1)
	go func() {
		_, err := r.RunExperiment(ctx, e, experiments.Config{})
		done <- err
	}()
	<-started
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}

	// Workers must all have exited; give the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// In degraded mode a point failure is not an error: the experiment
// still assembles, counts the failure, and emits point_failed, and the
// next experiment runs as usual. The run_done failure total is built by
// dxbench (TestRunDoneCarriesFailureTotal).
func TestRunExperimentDegradedContinues(t *testing.T) {
	bad := fakeExperiment(2, func(_ context.Context, p experiments.Point, _ int) error {
		if p.Index == 0 {
			return fmt.Errorf("bad")
		}
		return nil
	})
	good := fakeExperiment(2, func(context.Context, experiments.Point, int) error { return nil })
	good.ID = "GOOD"
	var log strings.Builder
	r := &Runner{Degraded: true, Events: NewEventLog(&log)}
	for _, c := range []struct {
		e      experiments.Experiment
		failed int
	}{{bad, 1}, {good, 0}} {
		res, err := r.RunExperiment(context.Background(), c.e, experiments.Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.e.ID, err)
		}
		if res.Stats.Failed != c.failed || len(res.Failed) != c.failed {
			t.Errorf("%s: %d failed (%d recorded), want %d", c.e.ID, res.Stats.Failed, len(res.Failed), c.failed)
		}
	}
	if !strings.Contains(log.String(), `"point_failed"`) {
		t.Errorf("no point_failed event:\n%s", log.String())
	}
}
