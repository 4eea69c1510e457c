package experiments

import (
	"context"
	"strings"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/sim"
	"dxbsp/internal/tablefmt"
)

func render(t *testing.T, r Renderable) string {
	t.Helper()
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

func mustRunID(t *testing.T, id string, cfg Config) Renderable {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	return e.MustRun(cfg)
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
		if e.Title == "" || e.Points == nil || e.RunPoint == nil || e.Assemble == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5",
		"F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13",
		"X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11", "X12", "X13"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestLookup(t *testing.T) {
	if e, ok := Lookup("F6"); !ok || e.ID != "F6" {
		t.Errorf("Lookup(F6) = %+v, %v", e, ok)
	}
	if _, ok := Lookup("F99"); ok {
		t.Error("Lookup(F99) should fail")
	}
}

// Every experiment must run at quick scale and produce non-empty output.
func TestAllExperimentsRunQuick(t *testing.T) {
	cfg := QuickConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out := render(t, e.MustRun(cfg))
			if len(out) < 40 {
				t.Errorf("%s output suspiciously short:\n%s", e.ID, out)
			}
			if tbl, ok := e.MustRun(cfg).(*tablefmt.Table); ok && tbl.NumRows() == 0 {
				t.Errorf("%s produced an empty table", e.ID)
			}
		})
	}
}

// Running an experiment's points in reverse order must assemble the same
// output as sweep order: the contract the parallel runner depends on.
// T3 is excluded because one of its columns is a wall-clock measurement.
func TestPointOrderIndependence(t *testing.T) {
	cfg := QuickConfig()
	ctx := context.Background()
	for _, e := range All() {
		if e.ID == "T3" {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			want := render(t, e.MustRun(cfg))

			pts := e.Points(cfg)
			results := make([]PointResult, len(pts))
			for i := len(pts) - 1; i >= 0; i-- {
				r, err := e.RunPoint(ctx, cfg, pts[i])
				if err != nil {
					t.Fatalf("%s/%s: %v", e.ID, pts[i].Label, err)
				}
				results[i] = r
			}
			got := render(t, e.Assemble(cfg, results))
			if got != want {
				t.Errorf("%s: reverse-order run differs from sweep order\n--- sweep ---\n%s\n--- reverse ---\n%s",
					e.ID, want, got)
			}
		})
	}
}

// A canceled context must stop the run with the context's error.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := Lookup("F2")
	if _, err := e.Run(ctx, QuickConfig()); err == nil {
		t.Error("Run with canceled context succeeded")
	}
}

func TestT1ShowsExpansion(t *testing.T) {
	out := render(t, mustRunID(t, "T1", QuickConfig()))
	for _, want := range []string{"Cray C90", "Tera", "expansion"} {
		if !strings.Contains(out, want) {
			t.Errorf("T1 missing %q:\n%s", want, out)
		}
	}
}

func TestT2CalibrationAccurate(t *testing.T) {
	// The measured g and d must be close to the configured ones — this is
	// the "framework is a good predictor" claim in microcosm.
	out := render(t, mustRunID(t, "T2", QuickConfig()))
	if !strings.Contains(out, "J90") || !strings.Contains(out, "C90") {
		t.Fatalf("T2 missing machines:\n%s", out)
	}
}

func TestF2ShapeContentionBound(t *testing.T) {
	// Structural check on F2's data: it must contain the k=1 row and the
	// k=n row, and render both machine columns.
	out := render(t, mustRunID(t, "F2", QuickConfig()))
	if !strings.Contains(out, "J90 sim") || !strings.Contains(out, "C90 sim") {
		t.Errorf("F2 missing machines:\n%s", out)
	}
}

func TestF5VersionCIsOffModel(t *testing.T) {
	out := render(t, mustRunID(t, "F5", QuickConfig()))
	if !strings.Contains(out, "(a)") || !strings.Contains(out, "(c)") {
		t.Errorf("F5 missing versions:\n%s", out)
	}
}

// TestDisciplineExperimentsTakeLockstep pins which engine serves the
// discipline and section studies: every simulation D1, D2, D3, X13 and
// F5 issue at quick scale is sim.BatchEligible, so RunContext serves it
// on the lockstep walk, not the event engine.
func TestDisciplineExperimentsTakeLockstep(t *testing.T) {
	for _, id := range []string{"D1", "D2", "D3", "X13", "F5"} {
		sims, slow := 0, map[string]int{}
		cfg := QuickConfig()
		cfg.Sim = SimRunnerFunc(func(ctx context.Context, sc sim.Config, pt core.Pattern) (sim.Result, error) {
			sims++ // Experiment.Run calls serially
			if reason := sim.BatchFallbackReason(sc); reason != "" {
				slow[reason]++
			}
			return sim.RunContext(ctx, sc, pt)
		})
		mustRunID(t, id, cfg)
		if sims == 0 {
			t.Errorf("%s issued no simulations", id)
		}
		if len(slow) > 0 {
			t.Errorf("%s: %d sims, event-engine fallbacks by reason %v", id, sims, slow)
		}
	}
}
