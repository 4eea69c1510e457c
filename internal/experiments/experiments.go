// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated machines: the machine catalogue (T1), the
// model calibration (T2), hash function costs (T3), the model-validation
// figures (F1–F5), the expansion and random-mapping studies (F6–F7), the
// QRQW emulation studies (F8–F9), and the algorithm studies (F10–F13).
//
// Each experiment is decomposed into three pure stages so a scheduler can
// parallelize inside an experiment, not just across experiments:
//
//   - Points(cfg) enumerates the independent units of the sweep. Any state
//     that the old serial loops threaded through a shared RNG is drawn here,
//     in the original order, so the decomposition is value-identical to the
//     serial code.
//   - RunPoint(ctx, cfg, p) executes one unit. Points never communicate, so
//     they can run in any order, on any number of goroutines.
//   - Assemble(cfg, results) combines the results — ordered by Point.Index,
//     not completion order — into the Renderable, which makes output
//     byte-identical regardless of scheduling.
//
// Run stitches the three together serially for tests and benchmarks;
// internal/runner fans RunPoint out over a worker pool and memoizes
// simulator calls made through Config.RunSim. DESIGN.md maps each
// experiment ID to the paper's figure or table and states the shape it is
// expected to reproduce; EXPERIMENTS.md records the outcomes.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"dxbsp/internal/core"
	"dxbsp/internal/sim"
	"dxbsp/internal/tablefmt"
)

// Config controls experiment scale.
type Config struct {
	// N is the bulk operation size; the paper uses S = 64K elements.
	N int
	// Seed makes every experiment deterministic.
	Seed uint64
	// Quick shrinks sweeps for use in unit tests.
	Quick bool
	// Sim, when non-nil, handles every simulator invocation made through
	// RunSim instead of calling sim.Run directly. The dxbench runner
	// installs a memoizing implementation here so identical simulations
	// shared between sweep points — and between experiments — execute once.
	Sim SimRunner
}

// SimRunner abstracts sim.RunContext so a scheduler can interpose a cache
// or a fault injector. Implementations must be safe for concurrent use and
// must honor ctx: a cancelled context interrupts the simulation mid-flight.
type SimRunner interface {
	RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error)
}

// RunSim routes one simulation through the configured SimRunner, or
// directly to sim.RunContext when none is installed.
func (c Config) RunSim(ctx context.Context, sc sim.Config, pt core.Pattern) (sim.Result, error) {
	if c.Sim != nil {
		return c.Sim.RunSim(ctx, sc, pt)
	}
	return sim.RunContext(ctx, sc, pt)
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{N: 1 << 16, Seed: 0xd5bcf95, Quick: false}
}

// QuickConfig returns a fast configuration for tests.
func QuickConfig() Config {
	return Config{N: 1 << 12, Seed: 0xd5bcf95, Quick: true}
}

// Renderable is anything an experiment can produce; it is an alias for
// tablefmt.Renderer so experiment results, tables and series satisfy the
// output interfaces uniformly.
type Renderable = tablefmt.Renderer

// Point is one independently executable unit of an experiment's sweep.
// Points carry their precomputed inputs (drawn deterministically by
// Points), so executing them in any order yields identical results.
type Point struct {
	// Index is the point's position in the sweep; Assemble orders results
	// by it.
	Index int
	// Label names the point for progress reporting and error messages.
	Label string

	run func(context.Context, Config) (interface{}, error)
}

// PointResult is the outcome of one point.
type PointResult struct {
	Index int
	// Label names the point. The serial path leaves it empty; the runner
	// fills it for failed points so Assemble can footnote the cell.
	Label string
	// Value is the experiment-specific payload. Table-shaped sweeps store
	// the rows ([][]interface{}) the point contributes.
	Value interface{}
	// Err, when non-nil, marks a point that failed after the runner's
	// retry budget. Value is nil and Assemble renders the failure as a
	// footnoted cell instead of data rows (degraded mode).
	Err error
}

// Experiment couples an ID with its three-stage regenerator.
type Experiment struct {
	ID    string
	Title string
	// Points enumerates the sweep. It is deterministic in cfg and performs
	// all shared-RNG input generation.
	Points func(Config) []Point
	// RunPoint executes one point. Implementations must not mutate shared
	// state: concurrent invocations on distinct points must be safe.
	RunPoint func(context.Context, Config, Point) (PointResult, error)
	// Assemble combines the point results, ordered by Index, into the
	// final result.
	Assemble func(Config, []PointResult) Renderable
}

// Run executes the experiment serially: Points, then RunPoint in sweep
// order, then Assemble. The parallel path in internal/runner produces
// byte-identical output.
func (e Experiment) Run(ctx context.Context, cfg Config) (Renderable, error) {
	pts := e.Points(cfg)
	results := make([]PointResult, len(pts))
	for i, p := range pts {
		r, err := e.RunPoint(ctx, cfg, p)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", e.ID, p.Label, err)
		}
		results[i] = r
	}
	return e.Assemble(cfg, results), nil
}

// tableRows is the Value stored by sweep points: the rows the point
// contributes to the experiment's table, in order.
type tableRows [][]interface{}

// oneRow wraps a single row as a point's tableRows.
func oneRow(cells ...interface{}) tableRows { return tableRows{cells} }

// newPoint builds a sweep point from its label and body. Index is assigned
// by the sweep builder.
func newPoint(label string, run func(context.Context, Config) (tableRows, error)) Point {
	return Point{Label: label, run: func(ctx context.Context, cfg Config) (interface{}, error) {
		return run(ctx, cfg)
	}}
}

// runPoint is the shared RunPoint implementation: it honors cancellation
// and tags the result with the point's index.
func runPoint(ctx context.Context, cfg Config, p Point) (PointResult, error) {
	if err := ctx.Err(); err != nil {
		return PointResult{}, err
	}
	v, err := p.run(ctx, cfg)
	if err != nil {
		return PointResult{}, err
	}
	return PointResult{Index: p.Index, Value: v}, nil
}

// failedCell footnotes a failed point on t and returns the marker cell
// rendered in its place. The footnote carries the point's label and the
// final error; the cell carries the reference.
func failedCell(t *tablefmt.Table, r PointResult) string {
	n := t.AddFootnote(fmt.Sprintf("%s: %v", r.Label, r.Err))
	return fmt.Sprintf("%s FAILED [%d]", r.Label, n)
}

// sweep builds a table-shaped Experiment: mkTable returns the empty titled
// table, points enumerates the sweep, and Assemble appends each point's
// rows in sweep order. Failed points (degraded runs) render as footnoted
// marker rows in the position their data would have occupied.
func sweep(id, title string, mkTable func(Config) *tablefmt.Table, points func(Config) []Point) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Points: func(cfg Config) []Point {
			pts := points(cfg)
			for i := range pts {
				pts[i].Index = i
			}
			return pts
		},
		RunPoint: runPoint,
		Assemble: func(cfg Config, results []PointResult) Renderable {
			t := mkTable(cfg)
			for _, r := range results {
				if r.Err != nil {
					t.AddRow(failedCell(t, r))
					continue
				}
				rows, _ := r.Value.(tableRows)
				for _, row := range rows {
					t.AddRow(row...)
				}
			}
			return t
		},
	}
}

// single wraps an indivisible experiment (trace captures, whole-algorithm
// studies) as a one-point Experiment.
func single(id, title string, run func(Config) (Renderable, error)) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Points: func(Config) []Point {
			return []Point{{Label: "all", run: func(_ context.Context, cfg Config) (interface{}, error) {
				return run(cfg)
			}}}
		},
		RunPoint: runPoint,
		Assemble: func(_ Config, results []PointResult) Renderable {
			if r := results[0]; r.Err != nil {
				t := tablefmt.New(fmt.Sprintf("%s: %s", id, title), "status")
				t.AddRow(failedCell(t, r))
				return t
			}
			return results[0].Value.(Renderable)
		},
	}
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		expT1(), expT2(), expT3(),
		expF1(), expF2(), expF3(), expF4(), expF5(),
		expF6(), expF7(),
		expF8(), expF9(),
		expF10(), expF11(), expF12(), expF13(),
		expX1(), expX2(), expX3(), expX4(), expX5(), expX6(), expX7(),
		expX8(), expX9(), expX10(), expX11(), expX12(), expX13(),
		expD1(), expD2(), expD3(),
	}
}

// Lookup returns the experiment with the given ID, searching the main
// registry and the huge-grid registry.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range Huge() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// expT1 renders the machine catalogue: the Table 1 premise that real
// machines provide many more banks than processors, with bank delays above
// the clock.
func expT1() Experiment {
	return single("T1", "Machines with more banks than processors", func(Config) (Renderable, error) {
		t := tablefmt.New("T1: high-bandwidth machines (representative figures)",
			"machine", "procs", "banks", "expansion x", "bank delay d", "d/x", "bandwidth matched")
		ms := core.Catalogue()
		sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
		for _, m := range ms {
			t.AddRow(m.Name, m.Procs, m.Banks, m.Expansion(), m.D,
				m.EffectiveBankGap(), fmt.Sprintf("%v", m.BandwidthMatched()))
		}
		return t, nil
	})
}
