// Package faults injects deterministic failures into the simulation layer
// for chaos testing the experiment engine. An Injector wraps any
// experiments.SimRunner and, at configurable rates, panics, returns
// transient errors, delays, or cancels requests, and corrupts checkpoint
// journal records on their way to disk.
//
// Every decision is a pure function of (seed, simulation key, call number
// for that key), never of wall-clock time or goroutine scheduling, so a
// chaos run is reproducible for any worker count: the same simulations
// fault in the same way no matter which worker issues them. By default a
// key faults only on its first call (Repeat = 1), so a retried point
// always converges — which is what makes the engine's byte-identical
// output guarantee testable under fault injection.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/rng"
	"dxbsp/internal/runner"
	"dxbsp/internal/sim"
)

// Spec configures the injector: per-call fault rates (fractions in [0, 1];
// panic+error+delay+cancel must not exceed 1), the journal corruption
// rate, and the repetition budget.
type Spec struct {
	// Seed drives every fault decision.
	Seed uint64
	// Panic is the rate of injected panics (permanent failures: the point
	// is footnoted, not retried).
	Panic float64
	// Error is the rate of injected transient errors.
	Error float64
	// Delay is the rate of injected delays (up to MaxDelay; the request
	// then succeeds — this exercises point timeouts).
	Delay float64
	// Cancel is the rate of injected cancellations: the request runs under
	// an already-cancelled context, so the simulator's cancellation polling
	// aborts it mid-run and the engine sees a transient failure.
	Cancel float64
	// Corrupt is the rate of checkpoint-journal record corruption (applied
	// by CorruptRecord, independent of the call-level rates).
	Corrupt float64
	// Torn is the rate of torn checkpoint-journal writes: the record is
	// truncated mid-line on its way to disk, as if the process died with
	// the write half-flushed. Applied by CorruptRecord alongside Corrupt;
	// the journal's checksum must turn both into recomputes.
	Torn float64
	// MaxDelay bounds injected delays. Defaults to 2ms.
	MaxDelay time.Duration
	// Repeat is the maximum number of faulting calls per simulation key.
	// Values < 1 mean the default of 1: a key faults at most once, so a
	// retry always succeeds.
	Repeat int

	// KillAfter, when positive, is process-level chaos: after that many
	// checkpoint-journal appends the process SIGKILLs itself — a
	// deterministic stand-in for `kill -9` mid-sweep. Wire it up via
	// KillOnAppend; only shard runs and chaos harnesses should.
	KillAfter int
}

func (s Spec) maxDelay() time.Duration {
	if s.MaxDelay <= 0 {
		return 2 * time.Millisecond
	}
	return s.MaxDelay
}

func (s Spec) repeat() int {
	if s.Repeat < 1 {
		return 1
	}
	return s.Repeat
}

// Validate checks the rates.
func (s Spec) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"panic", s.Panic}, {"error", s.Error}, {"delay", s.Delay}, {"cancel", s.Cancel}, {"corrupt", s.Corrupt}, {"torn", s.Torn}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s rate %g outside [0, 1]", r.name, r.v)
		}
	}
	if sum := s.Panic + s.Error + s.Delay + s.Cancel; sum > 1 {
		return fmt.Errorf("faults: call fault rates sum to %g > 1", sum)
	}
	if sum := s.Corrupt + s.Torn; sum > 1 {
		return fmt.Errorf("faults: record fault rates sum to %g > 1", sum)
	}
	if s.KillAfter < 0 {
		return fmt.Errorf("faults: kill count %d negative", s.KillAfter)
	}
	return nil
}

// ParseSpec parses a -chaos specification: either a bare rate ("0.1",
// shorthand for error=0.1) or comma-separated k=v pairs with keys panic,
// error, delay, cancel, corrupt, torn (rates), seed (uint), maxdelay
// (duration), repeat (int), and the process-level key kill (SIGKILL self
// after N journal appends). Example: "error=0.1,cancel=0.05,seed=7".
func ParseSpec(arg string) (Spec, error) {
	var s Spec
	arg = strings.TrimSpace(arg)
	if arg == "" {
		return s, fmt.Errorf("faults: empty spec")
	}
	if v, err := strconv.ParseFloat(arg, 64); err == nil {
		s.Error = v
		return s, s.Validate()
	}
	for _, field := range strings.Split(arg, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return s, fmt.Errorf("faults: bad field %q (want key=value)", field)
		}
		var err error
		switch k {
		case "panic", "error", "delay", "cancel", "corrupt", "torn":
			var rate float64
			if rate, err = strconv.ParseFloat(v, 64); err == nil {
				switch k {
				case "panic":
					s.Panic = rate
				case "error":
					s.Error = rate
				case "delay":
					s.Delay = rate
				case "cancel":
					s.Cancel = rate
				case "corrupt":
					s.Corrupt = rate
				case "torn":
					s.Torn = rate
				}
			}
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		case "maxdelay":
			s.MaxDelay, err = time.ParseDuration(v)
		case "repeat":
			s.Repeat, err = strconv.Atoi(v)
		case "kill":
			s.KillAfter, err = strconv.Atoi(v)
		default:
			return s, fmt.Errorf("faults: unknown key %q", k)
		}
		if err != nil {
			return s, fmt.Errorf("faults: bad value for %s: %v", k, err)
		}
	}
	return s, s.Validate()
}

// Error is an injected failure. It declares itself transient so the
// runner's retry policy re-executes the point (classification is
// structural — see internal/runner's IsTransient).
type Error struct {
	// Kind is "error" or "cancel".
	Kind string
	// Key identifies the faulted simulation.
	Key string
	// Err is the underlying cause, if any (the context error for cancels).
	Err error
}

func (e *Error) Error() string {
	msg := fmt.Sprintf("injected %s fault", e.Kind)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *Error) Unwrap() error   { return e.Err }
func (e *Error) Transient() bool { return true }

// Panic is the value thrown by an injected panic fault; the runner's
// point guard recovers it into a permanent *runner.PanicError.
type Panic struct{ Key string }

func (p Panic) String() string { return "injected panic fault" }

// Stats counts injected faults by kind.
type Stats struct {
	Panics, Errors, Delays, Cancels, Corrupted, Torn uint64
}

// String renders the nonzero counters, e.g. "errors=3 cancels=1".
func (s Stats) String() string {
	parts := []string{}
	for _, c := range []struct {
		name string
		v    uint64
	}{{"panics", s.Panics}, {"errors", s.Errors}, {"delays", s.Delays}, {"cancels", s.Cancels}, {"corrupted", s.Corrupted}, {"torn", s.Torn}} {
		if c.v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c.name, c.v))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Injector wraps a SimRunner with deterministic fault injection. Create
// with New; safe for concurrent use.
type Injector struct {
	spec   Spec
	next   experiments.SimRunner
	events *runner.EventLog

	mu    sync.Mutex
	calls map[string]int // per-key call count
	shots map[string]int // per-key injected fault count

	panics, errors, delays, cancels, corrupted, torn atomic.Uint64
}

// New returns an injector that forwards to next (sim.RunContext when nil)
// and logs fault_injected events to events (which may be nil).
func New(spec Spec, next experiments.SimRunner, events *runner.EventLog) *Injector {
	return &Injector{
		spec:   spec,
		next:   next,
		events: events,
		calls:  map[string]int{},
		shots:  map[string]int{},
	}
}

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Panics:    in.panics.Load(),
		Errors:    in.errors.Load(),
		Delays:    in.delays.Load(),
		Cancels:   in.cancels.Load(),
		Corrupted: in.corrupted.Load(),
		Torn:      in.torn.Load(),
	}
}

// KillOnAppend is the checkpoint journal's OnAppend hook for kill-process
// chaos: once the process has journaled KillAfter results it SIGKILLs
// itself — no deferred cleanup, no journal close, exactly the crash a
// shard's -resume must absorb. A no-op unless KillAfter > 0.
func (in *Injector) KillOnAppend(appended uint64) {
	if in.spec.KillAfter <= 0 || appended < uint64(in.spec.KillAfter) {
		return
	}
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		os.Exit(137)
	}
	in.events.Emit(runner.Event{Type: "fault_injected", Fault: "kill"})
	_ = p.Kill()
	// Kill is asynchronous on some platforms; make death certain.
	select {}
}

// draw maps (seed, key, call#) to a uniform value in [0, 1).
func draw(seed uint64, key string, call int) float64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	var buf [8]byte
	for b := 0; b < 8; b++ {
		buf[b] = byte(uint64(call) >> (8 * b))
	}
	h.Write(buf[:])
	r := rng.NewSplitMix64(seed ^ h.Sum64()).Next()
	return float64(r>>11) / float64(uint64(1)<<53)
}

// decide returns the fault kind for this call of key ("" for none) and
// records it against the key's repetition budget.
func (in *Injector) decide(key string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	call := in.calls[key]
	in.calls[key]++
	if in.shots[key] >= in.spec.repeat() {
		return ""
	}
	u := draw(in.spec.Seed, key, call)
	kind := ""
	for _, c := range []struct {
		name string
		rate float64
	}{{"panic", in.spec.Panic}, {"error", in.spec.Error}, {"delay", in.spec.Delay}, {"cancel", in.spec.Cancel}} {
		if u < c.rate {
			kind = c.name
			break
		}
		u -= c.rate
	}
	if kind != "" {
		in.shots[key]++
	}
	return kind
}

// RunSim implements experiments.SimRunner, injecting at most one fault
// per call before (or instead of) forwarding downstream.
func (in *Injector) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	key, ok := runner.SimKey(cfg, pt)
	if !ok {
		// Uncacheable requests share one budget; none exist in the suite.
		key = "unkeyed"
	}
	kind := in.decide(key)
	if kind != "" {
		in.events.Emit(runner.Event{Type: "fault_injected", Fault: kind})
	}
	switch kind {
	case "panic":
		in.panics.Add(1)
		panic(Panic{Key: key})
	case "error":
		in.errors.Add(1)
		return sim.Result{}, &Error{Kind: "error", Key: key}
	case "delay":
		in.delays.Add(1)
		// Deterministic duration; the sleep itself races the caller's
		// deadline, which is the point — it exercises point timeouts.
		frac := draw(in.spec.Seed^0xde1a9, key, 0)
		select {
		case <-time.After(time.Duration(frac * float64(in.spec.maxDelay()))):
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	case "cancel":
		in.cancels.Add(1)
		// Run under an already-cancelled sub-context so the simulator's
		// cancellation polling aborts mid-run. Small simulations may finish
		// before the first poll; a completed result is returned as-is.
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		res, err := in.forward(cctx, cfg, pt)
		if err != nil && ctx.Err() == nil {
			return sim.Result{}, &Error{Kind: "cancel", Key: key, Err: err}
		}
		return res, err
	}
	return in.forward(ctx, cfg, pt)
}

func (in *Injector) forward(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	if in.next != nil {
		return in.next.RunSim(ctx, cfg, pt)
	}
	return sim.RunContext(ctx, cfg, pt)
}

// CorruptRecord is the checkpoint journal's Corrupt hook: at the spec's
// corrupt rate (decided deterministically from the record content) it
// overwrites a span of bytes mid-record, and at the torn rate it
// truncates the record mid-line as a died-while-flushing write. Either
// way the journal's checksum must catch it on resume.
func (in *Injector) CorruptRecord(line []byte) []byte {
	if (in.spec.Corrupt <= 0 && in.spec.Torn <= 0) || len(line) == 0 {
		return line
	}
	h := fnv.New64a()
	h.Write(line)
	u := float64(rng.NewSplitMix64(in.spec.Seed^h.Sum64()^0xc0440).Next()>>11) / float64(uint64(1)<<53)
	if u < in.spec.Corrupt {
		in.corrupted.Add(1)
		out := append([]byte(nil), line...)
		start := len(out) / 3
		for i := start; i < start+8 && i < len(out); i++ {
			out[i] = 'X'
		}
		return out
	}
	if u < in.spec.Corrupt+in.spec.Torn {
		in.torn.Add(1)
		// Keep a strict prefix: the record loses its checksum field and
		// closing brace, exactly what a half-flushed append leaves behind.
		return append([]byte(nil), line[:len(line)*3/5]...)
	}
	return line
}
