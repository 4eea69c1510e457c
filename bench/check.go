package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/sim"
	"dxbsp/internal/surrogate"
)

// goldenFile holds the render and metrics-export digests of every
// workload at the default seed, captured from the dxbench CLI by
// `go test -run TestGolden -update`.
//
//go:embed testdata/golden.json
var goldenFile []byte

type goldenDigests struct {
	Render string `json:"render_sha256"`
	Export string `json:"metrics_export_sha256,omitempty"`
}

type golden struct {
	Seed      uint64                   `json:"seed"`
	Workloads map[string]goldenDigests `json:"workloads"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		return g, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// verdict is the outcome of a workload's untimed checks.
type verdict struct {
	problems []string
	// maxRelErr is the worst closed-form error against the simulator over
	// the routed requests; 0 when every request is simulated.
	maxRelErr float64
}

func (v *verdict) failf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// check runs w's untimed correctness checks at seed against the render
// and export digests that seed's trials agreed on, using dir as scratch
// space:
//   - the render equals an independent oracle: the serial
//     Experiment.Run path with no runner stack, or for huge-surrogate
//     the same stack re-run with every routed request re-simulated,
//     each within the pinned maximum error of its regime;
//   - at the default seed and paper scale, both digests equal the
//     golden captured from the dxbench CLI.
func check(ctx context.Context, w *workload, seed uint64, quick bool, dir, render, export string) (verdict, error) {
	var v verdict
	cfg := w.config(seed, quick)
	if w.stack.surrogate {
		got, err := checkSurrogate(ctx, w, &v, cfg, dir)
		if err != nil {
			return v, err
		}
		if got != render {
			v.failf("re-run render %.12s differs from the trials' %.12s", got, render)
		}
	} else {
		exps, err := w.experiments()
		if err != nil {
			return v, err
		}
		var buf bytes.Buffer
		for i, e := range exps {
			out, err := e.Run(ctx, cfg)
			if err != nil {
				return v, fmt.Errorf("serial reference: %w", err)
			}
			if i > 0 {
				buf.WriteByte('\n')
			}
			out.Render(&buf)
		}
		if got := digest(buf.Bytes()); got != render {
			v.failf("render %.12s differs from the serial reference %.12s", render, got)
		}
	}
	if cfg.Seed != defaultSeed || (quick && !w.quick) {
		return v, nil
	}
	g, err := loadGolden()
	if err != nil {
		return v, err
	}
	want, ok := g.Workloads[w.name]
	switch {
	case !ok || g.Seed != defaultSeed:
		v.failf("testdata/golden.json has no entry for %s at seed %#x", w.name, uint64(defaultSeed))
	case want.Render != render:
		v.failf("render %.12s differs from the CLI golden %.12s", render, want.Render)
	case want.Export != export:
		v.failf("metrics export %.12s differs from the CLI golden %.12s", export, want.Export)
	}
	return v, nil
}

// checkSurrogate runs w once, untimed, recording every request the
// surrogate router answered, then re-simulates each one. It returns the
// run's render digest.
func checkSurrogate(ctx context.Context, w *workload, v *verdict, cfg experiments.Config, dir string) (string, error) {
	type routed struct {
		cfg    sim.Config
		pt     core.Pattern
		cycles float64
	}
	var (
		mu  sync.Mutex
		got []routed
	)
	m := &meter{onServed: func(c sim.Config, pt core.Pattern, res sim.Result) {
		if res.Analytic {
			mu.Lock()
			got = append(got, routed{c, pt, res.Cycles})
			mu.Unlock()
		}
	}}
	m.ctx = ctx
	out, err := w.run(ctx, &repEnv{cfg: cfg, m: m, dir: dir})
	if err != nil {
		return "", err
	}
	for _, q := range got {
		res, err := sim.RunContext(ctx, q.cfg, q.pt)
		if err != nil {
			return "", fmt.Errorf("re-simulating a routed request: %w", err)
		}
		e := math.Abs(q.cycles-res.Cycles) / res.Cycles
		v.maxRelErr = max(v.maxRelErr, e)
		if bound := surrogate.MaxRelErr(q.cfg); e > bound {
			v.failf("closed form off by %.3f on p=%d banks=%d n=%d, above its bound %.3f",
				e, q.cfg.Machine.Procs, q.cfg.Machine.Banks, q.pt.N(), bound)
		}
	}
	return digest(out.render), nil
}
