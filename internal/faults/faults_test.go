package faults

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("0.25")
	if err != nil || s.Error != 0.25 {
		t.Errorf("bare rate: %+v, %v", s, err)
	}
	s, err = ParseSpec("panic=0.1,error=0.2,delay=0.05,cancel=0.02,corrupt=0.3,seed=42,maxdelay=5ms,repeat=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Panic: 0.1, Error: 0.2, Delay: 0.05, Cancel: 0.02, Corrupt: 0.3,
		Seed: 42, MaxDelay: 5 * time.Millisecond, Repeat: 2}
	if s != want {
		t.Errorf("spec = %+v, want %+v", s, want)
	}
	for _, bad := range []string{"", "nonsense", "bogus=1", "error=x", "error=1.5", "panic=0.6,error=0.6", "seed=-1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// Injected errors must classify as transient for the runner's retry
// policy; injected panics must surface as permanent PanicErrors.
func TestErrorClassification(t *testing.T) {
	if !runner.IsTransient(&Error{Kind: "error"}) {
		t.Error("injected fault not transient")
	}
	wrapped := &runner.PointError{Err: &Error{Kind: "cancel", Err: context.Canceled}}
	if !runner.IsTransient(wrapped) {
		t.Error("wrapped injected fault not transient")
	}
}

func testSim() (sim.Config, core.Pattern) {
	cfg := sim.Config{Machine: core.Machine{Name: "t", Procs: 4, Banks: 32, D: 4, G: 1, L: 8}}
	return cfg, core.NewPattern(patterns.Uniform(4096, 1<<20, rng.New(1)), 4)
}

// With rate 1 and the default repeat budget, a key faults exactly once:
// the first call fails, every later call succeeds. That is the property
// that makes retried chaos runs converge.
func TestFaultsAtMostOncePerKey(t *testing.T) {
	cfg, pt := testSim()
	in := New(Spec{Error: 1, Seed: 9}, nil, nil)
	if _, err := in.RunSim(context.Background(), cfg, pt); err == nil {
		t.Fatal("first call did not fault")
	} else {
		var fe *Error
		if !errors.As(err, &fe) || fe.Kind != "error" {
			t.Fatalf("unexpected error %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := in.RunSim(context.Background(), cfg, pt); err != nil {
			t.Fatalf("call %d after the fault failed: %v", i+2, err)
		}
	}
	if st := in.Stats(); st != (Stats{Errors: 1}) {
		t.Errorf("stats = %+v, want exactly one fault", st)
	}
}

// The injected panic carries the sentinel value the runner's guard
// recovers into a PanicError.
func TestPanicFault(t *testing.T) {
	cfg, pt := testSim()
	in := New(Spec{Panic: 1}, nil, nil)
	defer func() {
		v := recover()
		if _, ok := v.(Panic); !ok {
			t.Errorf("recovered %v (%T), want faults.Panic", v, v)
		}
	}()
	in.RunSim(context.Background(), cfg, pt)
	t.Error("no panic injected")
}

// A cancel fault aborts the simulation mid-flight via the simulator's own
// polling and reports a transient error; the parent context stays live.
func TestCancelFault(t *testing.T) {
	cfg, pt := testSim()
	in := New(Spec{Cancel: 1}, nil, nil)
	ctx := context.Background()
	_, err := in.RunSim(ctx, cfg, pt)
	if err == nil {
		t.Skip("simulation finished before the first cancellation poll")
	}
	if !runner.IsTransient(err) {
		t.Errorf("cancel fault %v not transient", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancel fault %v does not wrap context.Canceled", err)
	}
	if ctx.Err() != nil {
		t.Error("parent context was cancelled")
	}
	if _, err := in.RunSim(ctx, cfg, pt); err != nil {
		t.Errorf("retry after cancel fault failed: %v", err)
	}
}

// A delay fault sleeps, then the request succeeds unchanged.
func TestDelayFault(t *testing.T) {
	cfg, pt := testSim()
	clean, err := sim.Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Spec{Delay: 1, MaxDelay: time.Millisecond}, nil, nil)
	got, err := in.RunSim(context.Background(), cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if got != clean {
		t.Errorf("delayed result %+v differs from clean %+v", got, clean)
	}
	if st := in.Stats(); st.Delays != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// Fault decisions depend only on (seed, key, call number): two injectors
// with the same spec agree call for call, regardless of the interleaving
// of other keys.
func TestDecisionsDeterministic(t *testing.T) {
	spec := Spec{Error: 0.5, Seed: 123, Repeat: 1000}
	keys := []string{"a", "b", "c", "d"}
	record := func(order []string) map[string][]bool {
		in := New(spec, nil, nil)
		out := map[string][]bool{}
		for _, k := range order {
			out[k] = append(out[k], in.decide(k) != "")
		}
		return out
	}
	var interleaved, grouped []string
	for call := 0; call < 16; call++ {
		for _, k := range keys {
			interleaved = append(interleaved, k)
		}
	}
	for _, k := range keys {
		for call := 0; call < 16; call++ {
			grouped = append(grouped, k)
		}
	}
	a, b := record(interleaved), record(grouped)
	for _, k := range keys {
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				t.Fatalf("key %s call %d: decision depends on interleaving", k, i)
			}
		}
	}
}

// End-to-end chaos determinism at the engine level: a transient-fault
// chaos run renders byte-identical output to the fault-free run for every
// worker count.
func TestChaosRunDeterministic(t *testing.T) {
	e, ok := experiments.Lookup("F2")
	if !ok {
		t.Fatal("F2 missing")
	}
	cfg := experiments.QuickConfig()
	baseRunner := &runner.Runner{Parallel: 1, Cache: runner.NewCache()}
	baseRes, err := baseRunner.RunExperiment(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var base strings.Builder
	baseRes.Output.Render(&base)

	for _, workers := range []int{1, 4, 8} {
		cache := runner.NewCache()
		cache.Next = New(Spec{Error: 0.2, Cancel: 0.1, Delay: 0.1, Seed: 7}, nil, nil)
		r := &runner.Runner{
			Parallel: workers,
			Cache:    cache,
			Retry:    runner.RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Microsecond},
			Degraded: true,
		}
		res, err := r.RunExperiment(context.Background(), e, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.Failed != 0 {
			t.Fatalf("workers=%d: %d points failed under transient-only chaos", workers, res.Stats.Failed)
		}
		var out strings.Builder
		res.Output.Render(&out)
		if out.String() != base.String() {
			t.Errorf("workers=%d: chaos output differs from fault-free baseline", workers)
		}
	}
}

// Concurrent callers must not corrupt the injector's bookkeeping (run
// with -race in CI's chaos job).
func TestInjectorConcurrent(t *testing.T) {
	cfg, pt := testSim()
	in := New(Spec{Error: 0.5, Seed: 3}, nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				in.RunSim(context.Background(), cfg, pt)
			}
		}()
	}
	wg.Wait()
	if st := in.Stats(); st.Panics+st.Errors+st.Delays+st.Cancels+st.Corrupted+st.Torn > 32 {
		t.Errorf("more faults than calls: %+v", st)
	}
}

// CorruptRecord at rate 1 must damage the record so the journal checksum
// rejects it on reload — never silently serve corrupted data.
func TestCorruptRecordCaughtByJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := runner.OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Spec{Corrupt: 1, Seed: 11}, nil, nil)
	j.Corrupt = in.CorruptRecord
	cfg, pt := testSim()
	res, err := sim.Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := runner.SimKey(cfg, pt)
	if !ok {
		t.Fatal("unkeyable test sim")
	}
	j.Append(key, res)
	j.Close()
	if in.Stats().Corrupted != 1 {
		t.Fatalf("stats = %+v, want 1 corrupted", in.Stats())
	}

	var warn strings.Builder
	j2, err := runner.OpenJournal(dir, true, &warn)
	if err != nil {
		t.Fatalf("resume from corrupted journal was fatal: %v", err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup(key); ok {
		t.Error("corrupted record served as a hit")
	}
	if j2.Stats().Skipped != 1 {
		t.Errorf("stats = %+v, want 1 skipped", j2.Stats())
	}
	if !strings.Contains(warn.String(), "skipping") {
		t.Errorf("no warning:\n%s", warn.String())
	}
}

// The process-level chaos knobs parse and validate like the rates do.
func TestParseSpecProcessChaos(t *testing.T) {
	s, err := ParseSpec("torn=0.2,kill=5")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Torn: 0.2, KillAfter: 5}
	if s != want {
		t.Errorf("spec = %+v, want %+v", s, want)
	}
	for _, bad := range []string{"torn=1.5", "torn=-0.1", "corrupt=0.6,torn=0.6", "kill=-1", "kill=x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// A key of no known fault is refused, never silently ignored.
	if _, err := ParseSpec("stallhb=1"); err == nil || !strings.Contains(err.Error(), `unknown key "stallhb"`) {
		t.Errorf("stallhb=1: err = %v, want unknown key", err)
	}
}

// A torn record — truncated mid-line as if the process died while the
// write was half-flushed — must be skipped on resume, never served.
func TestTornRecordCaughtByJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := runner.OpenJournal(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Spec{Torn: 1, Seed: 11}, nil, nil)
	j.Corrupt = in.CorruptRecord
	cfg, pt := testSim()
	res, err := sim.Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := runner.SimKey(cfg, pt)
	if !ok {
		t.Fatal("unkeyable test sim")
	}
	j.Append(key, res)
	j.Close()
	if in.Stats().Torn != 1 {
		t.Fatalf("stats = %+v, want 1 torn", in.Stats())
	}

	var warn strings.Builder
	j2, err := runner.OpenJournal(dir, true, &warn)
	if err != nil {
		t.Fatalf("resume from torn journal was fatal: %v", err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup(key); ok {
		t.Error("torn record served as a hit")
	}
	if j2.Stats().Skipped != 1 {
		t.Errorf("stats = %+v, want 1 skipped", j2.Stats())
	}
	if !strings.Contains(warn.String(), "offset") {
		t.Errorf("warning does not name the record offset:\n%s", warn.String())
	}
}

// KillOnAppend below the threshold is a no-op — the counterpart above the
// threshold SIGKILLs the process, which the dxbench helper-process test
// covers; it cannot run in-process.
func TestKillOnAppendBelowThreshold(t *testing.T) {
	in := New(Spec{KillAfter: 3}, nil, nil)
	in.KillOnAppend(1)
	in.KillOnAppend(2)
	off := New(Spec{}, nil, nil)
	off.KillOnAppend(1 << 30) // KillAfter unset: never kills
}

// The injector logs fault_injected events.
func TestFaultEvents(t *testing.T) {
	var log strings.Builder
	cfg, pt := testSim()
	in := New(Spec{Error: 1}, nil, runner.NewEventLog(&log))
	in.RunSim(context.Background(), cfg, pt)
	if !strings.Contains(log.String(), `"fault_injected"`) || !strings.Contains(log.String(), `"fault":"error"`) {
		t.Errorf("event log:\n%s", log.String())
	}
}

var _ experiments.SimRunner = (*Injector)(nil)
