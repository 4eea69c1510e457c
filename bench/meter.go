package main

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/sim"
)

// meter is the benchmark's instrumentation of one rep, all of it applied
// from outside the program through public boundaries: it times every
// RunPoint call and counts the requests entering the top of the runner
// stack. With a tracer attached it also records a span at every layer
// boundary the rep crosses.
type meter struct {
	tr  *tracer         // nil: untraced
	ctx context.Context // the rep's root context, for stages that take none
	// onServed, when non-nil, sees every request served at the top of
	// the stack.
	onServed func(sim.Config, core.Pattern, sim.Result)

	mu       sync.Mutex
	pointS   []float64
	requests atomic.Int64
}

// begin opens a span named name under the span ctx carries and returns
// the context for its children and the function that closes the span,
// recording n requests against it. Untraced, both are no-ops.
func (m *meter) begin(ctx context.Context, name string) (context.Context, func(n int)) {
	if m.tr == nil {
		return ctx, func(int) {}
	}
	return m.tr.begin(ctx, name)
}

// within runs f inside a span named name.
func (m *meter) within(ctx context.Context, name string, f func() error) error {
	_, end := m.begin(ctx, name)
	defer end(0)
	return f()
}

// wrap instruments an experiment's three stages. The RunPoint wrapper
// also wraps the cfg.Sim the runner hands the point — the top of the
// stack, above the surrogate router and the observer's probe — to count
// every request however it is later served.
func (m *meter) wrap(e experiments.Experiment) experiments.Experiment {
	points, runPoint, assemble := e.Points, e.RunPoint, e.Assemble
	if m.tr != nil {
		e.Points = func(cfg experiments.Config) []experiments.Point {
			_, end := m.begin(m.ctx, "experiments.points")
			defer end(0)
			return points(cfg)
		}
		e.Assemble = func(cfg experiments.Config, rs []experiments.PointResult) experiments.Renderable {
			_, end := m.begin(m.ctx, "experiments.assemble")
			defer end(0)
			return assemble(cfg, rs)
		}
	}
	e.RunPoint = func(ctx context.Context, cfg experiments.Config, p experiments.Point) (experiments.PointResult, error) {
		t0 := time.Now()
		ctx, end := m.begin(ctx, "experiments.run_point")
		cfg.Sim = topSim{m: m, next: cfg.Sim}
		res, err := runPoint(ctx, cfg, p)
		end(0)
		d := time.Since(t0).Seconds()
		m.mu.Lock()
		m.pointS = append(m.pointS, d)
		m.mu.Unlock()
		return res, err
	}
	return e
}

// layer wraps next (nil meaning sim.RunContext) in a span named name when
// tracing. Untraced it returns next unchanged, so the stack is exactly
// the one cmd/dxbench builds.
func (m *meter) layer(name string, next experiments.SimRunner) experiments.SimRunner {
	if m.tr == nil {
		return next
	}
	return tracedSim{m: m, name: name, next: next}
}

// render writes out as dxbench's text format does.
func (m *meter) render(ctx context.Context, out experiments.Renderable, w io.Writer) {
	m.within(ctx, "tablefmt.render", func() error {
		out.Render(w)
		return nil
	})
}

func runSim(ctx context.Context, next experiments.SimRunner, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	if next == nil {
		return sim.RunContext(ctx, cfg, pt)
	}
	return next.RunSim(ctx, cfg, pt)
}

// topSim sits above the whole runner stack of one point.
type topSim struct {
	m    *meter
	next experiments.SimRunner
}

func (s topSim) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	n := pt.N()
	s.m.requests.Add(int64(n))
	ctx, end := s.m.begin(ctx, "runner.request")
	res, err := runSim(ctx, s.next, cfg, pt)
	end(n)
	if err == nil {
		if s.m.tr != nil {
			s.m.tr.served(res, n)
		}
		if s.m.onServed != nil {
			s.m.onServed(cfg, pt, res)
		}
	}
	return res, err
}

type tracedSim struct {
	m    *meter
	name string
	next experiments.SimRunner
}

func (s tracedSim) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	ctx, end := s.m.begin(ctx, s.name)
	res, err := runSim(ctx, s.next, cfg, pt)
	end(pt.N())
	return res, err
}

// span is one traced interval; times are nanoseconds since the tracer's
// start. Parent 0 means a root.
type span struct {
	Rep      int    `json:"rep"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Requests int    `json:"requests,omitempty"`
}

type spanKey struct{}

// tracer keeps every span of a trial in memory, plus the counts recorded
// at the same boundaries: batch lane outcomes and the results served at
// the top of the stack.
type tracer struct {
	base time.Time
	ids  atomic.Int64

	mu     sync.Mutex
	rep    int
	spans  []span
	lanes  map[string]int // Batcher.Observe outcome ("" = fast path) → calls
	cycles []float64      // Result.Cycles of every request served this rep
	routed int            // requests answered in closed form this rep
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(ctx context.Context, name string) (context.Context, func(n int)) {
	parent, _ := ctx.Value(spanKey{}).(int64)
	id := t.ids.Add(1)
	start := time.Since(t.base)
	return context.WithValue(ctx, spanKey{}, id), func(n int) {
		end := time.Since(t.base)
		t.mu.Lock()
		t.spans = append(t.spans, span{Rep: t.rep, ID: id, Parent: parent, Name: name,
			Start: int64(start), End: int64(end), Requests: n})
		t.mu.Unlock()
	}
}

// startRep resets the per-rep counts and tags later spans with rep.
func (t *tracer) startRep(rep int) {
	t.mu.Lock()
	t.rep, t.lanes, t.cycles, t.routed = rep, map[string]int{}, nil, 0
	t.mu.Unlock()
}

func (t *tracer) served(res sim.Result, n int) {
	t.mu.Lock()
	t.cycles = append(t.cycles, res.Cycles)
	if res.Analytic {
		t.routed += n
	}
	t.mu.Unlock()
}

// lane counts one Batcher.Observe outcome.
func (t *tracer) lane(reason string) {
	t.mu.Lock()
	t.lanes[reason]++
	t.mu.Unlock()
}

// cyclesTotal sums the rep's served cycles in sorted order, so the total
// does not depend on which worker finished first.
func (t *tracer) cyclesTotal() float64 {
	t.mu.Lock()
	cs := append([]float64(nil), t.cycles...)
	t.mu.Unlock()
	sort.Float64s(cs)
	return sum(cs)
}

// repSpans returns the spans recorded for rep.
func (t *tracer) repSpans(rep int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Rep == rep {
			out = append(out, s)
		}
	}
	return out
}

// spanTimes aggregates one rep's spans by name.
type spanTimes struct {
	self     map[string]float64 // seconds of the rep's wall time spent in the span itself
	busy     map[string]float64 // Σ span durations, seconds
	calls    map[string]int
	requests map[string]int
}

// accountSpans computes every span's self time: its duration minus the
// part of it that its child spans cover. Where spans run concurrently,
// each instant is split evenly among the spans running themselves (not a
// child) at that instant, so the self times of all spans, root included,
// add up to the root's wall time exactly.
func accountSpans(spans []span) spanTimes {
	st := spanTimes{self: map[string]float64{}, busy: map[string]float64{},
		calls: map[string]int{}, requests: map[string]int{}}
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
		st.busy[s.Name] += float64(s.End-s.Start) / 1e9
		st.calls[s.Name]++
		st.requests[s.Name] += s.Requests
	}
	parent := make([]int, len(spans))
	depth := make([]int, len(spans))
	for i, s := range spans {
		parent[i] = -1
		if p, ok := idx[s.Parent]; ok {
			parent[i] = p
		}
	}
	for i := range spans {
		for p := parent[i]; p >= 0; p = parent[p] {
			depth[i]++
		}
	}
	type event struct {
		t     int64
		start bool
		span  int
	}
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.End > s.Start { // an empty span (and its children) has no self time
			evs = append(evs, event{s.Start, true, i}, event{s.End, false, i})
		}
	}
	// At one instant: ends before starts, children end before parents,
	// parents start before children.
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.start != y.start {
			return !x.start
		}
		if x.start {
			return depth[x.span] < depth[y.span]
		}
		return depth[x.span] > depth[y.span]
	})

	// phi integrates dt / (spans running themselves); a span's self time
	// is the growth of phi while it runs itself.
	var (
		phi      float64
		running  int
		last     int64
		active   = make([]bool, len(spans))
		children = make([]int, len(spans))
		from     = make([]float64, len(spans))
		self     = make([]float64, len(spans))
	)
	enter := func(i int) { from[i] = phi; running++ }
	leave := func(i int) { self[i] += phi - from[i]; running-- }
	for _, ev := range evs {
		if running > 0 {
			phi += float64(ev.t-last) / 1e9 / float64(running)
		}
		last = ev.t
		i, p := ev.span, parent[ev.span]
		if p >= 0 && !active[p] {
			p = -1 // parent already closed: account the span as a root
		}
		if ev.start {
			if p >= 0 {
				if children[p] == 0 {
					leave(p)
				}
				children[p]++
			}
			active[i] = true
			enter(i)
			continue
		}
		if !active[i] {
			continue
		}
		active[i] = false
		if children[i] == 0 {
			leave(i)
		}
		if p >= 0 {
			children[p]--
			if children[p] == 0 {
				enter(p)
			}
		}
	}
	for i, s := range spans {
		st.self[s.Name] += self[i]
	}
	return st
}
