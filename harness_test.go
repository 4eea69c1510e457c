package dxbsp

import (
	"context"
	"io"
	"strings"
	"testing"

	"dxbsp/internal/experiments"
)

// TestEveryExperimentHasABench ensures the bench harness and the
// experiment registry stay in lockstep: every registered experiment must
// be runnable at bench scale, and the IDs the benches reference must
// resolve. (The benchmarks themselves are exercised by
// `go test -bench=.`; this test guards the mapping under plain
// `go test`.)
func TestEveryExperimentHasABench(t *testing.T) {
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			cfg := experiments.QuickConfig()
			r := mustRun(t, e, cfg)
			var b strings.Builder
			r.Render(&b)
			if b.Len() == 0 {
				t.Fatalf("%s rendered nothing", e.ID)
			}
		})
	}
}

// TestBenchConfigScale pins the harness configuration: bench runs must be
// large enough to show the paper's shapes (the contention crossover must
// exist within the sweep) while staying fast.
func TestBenchConfigScale(t *testing.T) {
	cfg := benchConfig()
	if cfg.N < 1<<12 {
		t.Errorf("bench N = %d too small to exhibit the crossover", cfg.N)
	}
	e, ok := experiments.Lookup("F2")
	if !ok {
		t.Fatal("F2 missing")
	}
	mustRun(t, e, cfg).Render(io.Discard)
}

// mustRun runs e serially at cfg, failing tb on error.
func mustRun(tb testing.TB, e experiments.Experiment, cfg experiments.Config) experiments.Renderable {
	tb.Helper()
	r, err := e.Run(context.Background(), cfg)
	if err != nil {
		tb.Fatalf("%s: %v", e.ID, err)
	}
	return r
}
