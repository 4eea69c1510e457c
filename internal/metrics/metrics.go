// Package metrics is the observability core: a small, allocation-free
// registry of counters, gauges and histograms with deterministic snapshot
// and export (JSON and OpenMetrics text).
//
// Design constraints, in order:
//
//   - The update path (Add, Inc, Set, SetMax, Observe) performs zero
//     allocations and takes no locks: every instrument is a fixed set of
//     atomics. Callers hold on to the instrument handle; get-or-create
//     goes through the registry's mutex exactly once per instrument.
//   - Snapshots are deterministic: instruments are emitted sorted by
//     (name, label fingerprint) regardless of registration or update
//     order, and float rendering goes through one shared formatter, so
//     two runs that record the same values export the same bytes.
//   - Wall-clock-derived instruments are marked Volatile at creation.
//     Snapshot(false) excludes them, which is what lets `dxbench
//     -metrics` promise byte-identical output for any -parallel worker
//     count: everything it exports is a pure function of the simulated
//     work, not of scheduling.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates instrument types in snapshots.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the OpenMetrics type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name/value pair attached to an instrument.
type Label struct {
	Key, Value string
}

// Opt configures an instrument at creation.
type Opt func(*instrument)

// WithLabels attaches labels. Two instruments with the same name and
// different labels are distinct series of the same metric family.
func WithLabels(labels ...Label) Opt {
	return func(in *instrument) { in.labels = append(in.labels, labels...) }
}

// Volatile marks an instrument whose value depends on wall-clock time or
// scheduling (latencies, utilization, cache traffic under contention).
// Volatile instruments are excluded from deterministic snapshots.
func Volatile() Opt {
	return func(in *instrument) { in.volatile = true }
}

// instrument is the registry's record of one series.
type instrument struct {
	name     string
	help     string
	kind     Kind
	labels   []Label
	volatile bool

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// id returns the series identity: name plus label fingerprint.
func (in *instrument) id() string {
	if len(in.labels) == 0 {
		return in.name
	}
	s := in.name + "{"
	for i, l := range in.labels {
		if i > 0 {
			s += ","
		}
		s += l.Key + "=" + l.Value
	}
	return s + "}"
}

// Registry holds a set of named instruments. The zero value is not
// usable; create with NewRegistry. Safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*instrument)}
}

// get returns the instrument for id, creating it with mk when absent. It
// panics when the same series was previously registered as another kind —
// that is a programming error, not a runtime condition.
func (r *Registry) get(name, help string, kind Kind, opts []Opt, mk func(*instrument)) *instrument {
	probe := &instrument{name: name, help: help, kind: kind}
	for _, o := range opts {
		o(probe)
	}
	sort.SliceStable(probe.labels, func(i, j int) bool { return probe.labels[i].Key < probe.labels[j].Key })
	id := probe.id()

	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byID[id]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", id, in.kind, kind))
		}
		return in
	}
	mk(probe)
	r.byID[id] = probe
	return probe
}

// Counter returns (creating if needed) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, opts ...Opt) *Counter {
	in := r.get(name, help, KindCounter, opts, func(in *instrument) { in.counter = &Counter{} })
	return in.counter
}

// Gauge returns (creating if needed) a gauge.
func (r *Registry) Gauge(name, help string, opts ...Opt) *Gauge {
	in := r.get(name, help, KindGauge, opts, func(in *instrument) { in.gauge = &Gauge{} })
	return in.gauge
}

// Histogram returns (creating if needed) a histogram with the given
// ascending upper bucket bounds. An implicit +Inf bucket is always
// appended. Bounds are fixed at creation; a second call for the same
// series returns the existing histogram and ignores the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64, opts ...Opt) *Histogram {
	in := r.get(name, help, KindHistogram, opts, func(in *instrument) { in.hist = newHistogram(bounds) })
	return in.hist
}

// Counter is a float64 counter with an atomic, allocation-free Add.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v. Negative or NaN deltas are ignored:
// counters are monotone by contract.
func (c *Counter) Add(v float64) {
	if !(v > 0) { // also rejects NaN
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 gauge with atomic Set/SetMax.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetMax raises the gauge to v if v is larger (high-water-mark use).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if !(v > math.Float64frombits(old)) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with ascending upper
// bounds, plus an implicit +Inf overflow bucket. NaN observations are
// counted (in count and the +Inf bucket) but excluded from sum, so a
// stray NaN cannot poison the aggregate.
type Histogram struct {
	bounds  []float64 // ascending; excludes the +Inf bucket
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (NaN: len, the +Inf bucket)
	h.buckets[i].Add(1)
	h.count.Add(1)
	if !math.IsNaN(v) {
		for {
			old := h.sumBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + v)
			if h.sumBits.CompareAndSwap(old, next) {
				return
			}
		}
	}
}

// Sample is the exported state of one series at snapshot time.
type Sample struct {
	Name     string
	Help     string
	Kind     Kind
	Labels   []Label
	Volatile bool

	// Value is the counter or gauge value; unused for histograms.
	Value float64

	// Histogram state: Bounds are the finite upper bounds, Buckets the
	// per-bucket (non-cumulative) counts with the +Inf overflow last.
	Bounds  []float64
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// Snapshot returns the registry's state sorted by series id, excluding
// volatile instruments unless includeVolatile is set. The result is a
// deep copy: later updates do not affect it.
func (r *Registry) Snapshot(includeVolatile bool) []Sample {
	r.mu.Lock()
	ins := make([]*instrument, 0, len(r.byID))
	for _, in := range r.byID {
		if in.volatile && !includeVolatile {
			continue
		}
		ins = append(ins, in)
	}
	r.mu.Unlock()

	sort.Slice(ins, func(i, j int) bool { return ins[i].id() < ins[j].id() })
	out := make([]Sample, 0, len(ins))
	for _, in := range ins {
		s := Sample{Name: in.name, Help: in.help, Kind: in.kind, Volatile: in.volatile,
			Labels: append([]Label(nil), in.labels...)}
		switch in.kind {
		case KindCounter:
			s.Value = in.counter.Value()
		case KindGauge:
			s.Value = in.gauge.Value()
		case KindHistogram:
			h := in.hist
			s.Bounds = append([]float64(nil), h.bounds...)
			s.Buckets = make([]uint64, len(h.buckets))
			for i := range h.buckets {
				s.Buckets[i] = h.buckets[i].Load()
			}
			s.Sum = math.Float64frombits(h.sumBits.Load())
			s.Count = h.count.Load()
		}
		out = append(out, s)
	}
	return out
}
