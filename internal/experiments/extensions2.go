package experiments

import (
	"context"
	"fmt"

	"dxbsp/internal/algos"
	"dxbsp/internal/core"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/patterns"
	"dxbsp/internal/pipe"
	"dxbsp/internal/qrqw"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
	"dxbsp/internal/tablefmt"
	"dxbsp/internal/vector"
)

// expX10 re-derives the hash-cost table (T3) from the chime-level vector
// pipeline model instead of raw operation counts: with chaining, the
// linear hash hides entirely behind the address load — pseudo-random bank
// mapping is essentially free on these machines, which is why the paper
// can recommend it so broadly. One point per hash family, drawn in
// catalogue order from the shared stream.
func expX10() Experiment {
	return sweep("X10", "Extension: hash cost via the vector pipeline model",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X10: hash cost via the vector pipeline model (n=%d)", cfg.N),
				"hash", "op-count model", "J90 pipeline (VL=64)", "C90 pipeline (VL=128, 2 ports)")
		},
		func(cfg Config) []Point {
			n := cfg.N
			g := rng.New(cfg.Seed)
			var pts []Point
			for _, f := range hashfn.Families(10, g) {
				f := f
				pts = append(pts, newPoint(f.Name(), func(context.Context, Config) (tableRows, error) {
					ops := f.Ops()
					k := pipe.HashKernel(ops.Mul, ops.Add, ops.Shift)
					j, err := pipe.Run(pipe.J90Unit(), k, n)
					if err != nil {
						return nil, err
					}
					c, err := pipe.Run(pipe.C90Unit(), k, n)
					if err != nil {
						return nil, err
					}
					return oneRow(f.Name(), ops.Cost(), j.CyclesPerElement(n), c.CyclesPerElement(n)), nil
				}))
			}
			return pts
		})
}

// expX11 is the capstone pipeline: capture the access trace of a real
// algorithm run (connected components), convert it into a QRQW program,
// and re-emulate it on machines with different bank delays and expansion
// factors — predicting how the same code would behave on hardware that
// was never built. The trace capture and the re-emulations are one
// sequential pipeline, so this stays a single point.
func expX11() Experiment {
	return single("X11", "Extension: re-emulating a captured algorithm trace", func(cfg Config) (Renderable, error) {
		nVerts := cfg.N / 8
		gr := algos.RandomGraph(nVerts, 2*nVerts, rng.New(cfg.Seed))

		// Capture every irregular superstep's address multiset. The VM
		// reuses addrs after the callback, so each step is copied into a
		// shared buffer that is replaced, never regrown, when it fills.
		var steps [][]uint64
		var buf []uint64
		vm := vector.New(core.J90(), vector.WithCapture(func(_ string, addrs []uint64) {
			if cap(buf)-len(buf) < len(addrs) {
				buf = make([]uint64, 0, max(len(addrs), 1<<14))
			}
			buf = append(buf, addrs...)
			steps = append(steps, buf[len(buf)-len(addrs):])
		}))
		algos.ConnectedComponents(vm, gr, rng.New(cfg.Seed^0x77))

		v := 4096
		prog := qrqw.ProgramFromTraces(steps, v)
		t := tablefmt.New(fmt.Sprintf("X11: connected-components trace re-emulated (%d steps, v=%d, κmax=%d)",
			len(prog.Steps), v, prog.MaxContention()),
			"machine (d, x)", "emulated cycles", "slowdown", "work overhead")
		for _, m := range []core.Machine{
			{Name: "d=6 x=128", Procs: 8, Banks: 1024, D: 6, G: 1, L: 64},
			{Name: "d=14 x=64", Procs: 8, Banks: 512, D: 14, G: 1, L: 64},
			{Name: "d=14 x=4", Procs: 8, Banks: 32, D: 14, G: 1, L: 64},
			{Name: "d=64 x=64", Procs: 8, Banks: 512, D: 64, G: 1, L: 64},
		} {
			bm := hashfn.Map{F: hashfn.NewLinear(hashfn.Log2Banks(m.Banks), rng.New(cfg.Seed^9))}
			res, err := qrqw.Emulate(prog, m, bm, qrqw.Analytic)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, res.Cycles, res.Slowdown(), res.WorkOverhead())
		}
		return t, nil
	})
}

// expX12 compares mapping the two high-level models onto the same machines:
// an EREW program (no contention by construction) and a QRQW program with
// per-step contention κ, emulated across bank delays at fixed expansion.
// The EREW emulation depends on d only through the d/x bandwidth floor;
// the QRQW emulation adds the d*κ term — quantifying what the exclusive-
// access discipline buys, and what the queue discipline charges for. Both
// programs are drawn once in Points and shared read-only by every per-d
// point (Emulate never mutates its program).
func expX12() Experiment {
	return sweep("X12", "Extension: EREW vs QRQW emulation across bank delays",
		func(cfg Config) *tablefmt.Table {
			v := cfg.N / 8
			return tablefmt.New(fmt.Sprintf("X12: EREW vs QRQW emulation (x=64, v=%d, κ=%d)", v, v/32),
				"d", "EREW cycles", "QRQW cycles", "QRQW/EREW", "EREW slack for α=2 (Chernoff)")
		},
		func(cfg Config) []Point {
			p := 8
			v := cfg.N / 8
			kappa := v / 32
			g := rng.New(cfg.Seed)
			erew := qrqw.EREWProgram(v, 2, g)
			qr := qrqw.ContentionProgram(v, 2, kappa, uint64(8*64+1), g)
			ds := []float64{2, 8, 32, 64}
			if cfg.Quick {
				ds = []float64{2, 32}
			}
			var pts []Point
			for _, d := range ds {
				d := d
				pts = append(pts, newPoint(fmt.Sprintf("d=%g", d), func(_ context.Context, cfg Config) (tableRows, error) {
					m := core.Machine{Name: "emu", Procs: p, Banks: p * 64, D: d, G: 1, L: 64}
					bm := emulationBankMap(m.Banks, cfg.Seed^3)
					re, err := qrqw.EmulateEREW(erew, m, bm, qrqw.Analytic)
					if err != nil {
						return nil, err
					}
					rq, err := qrqw.Emulate(qr, m, bm, qrqw.Analytic)
					if err != nil {
						return nil, err
					}
					return oneRow(d, re.Cycles, rq.Cycles, rq.Cycles/re.Cycles,
						qrqw.MinSlacknessEREW(m, 2)), nil
				}))
			}
			return pts
		})
}

// expX13 studies latency hiding: the same random scatter executed with a
// bounded per-processor window of outstanding requests (the Tera-style
// multithreading knob) at substantial network latency, simulated and
// predicted with the M/D/1 windowed model. Vectorization (an effectively
// unbounded window) is what lets the Crays ignore latency; the sweep
// shows how much window is enough. Every point re-derives the open-window
// baseline, which the runner's memo cache collapses to one simulation.
func expX13() Experiment {
	return sweep("X13", "Extension: latency hiding vs issue window",
		func(cfg Config) *tablefmt.Table {
			return tablefmt.New(fmt.Sprintf("X13: latency hiding vs issue window (n=%d, J90, net delay 50)", cfg.N/4),
				"window", "sim cycles", "queueing model", "sim/model", "slowdown vs open")
		},
		func(cfg Config) []Point {
			n := cfg.N / 4
			g := rng.New(cfg.Seed)
			addrs := patterns.Uniform(n, 1<<30, g)
			windows := []int{1, 2, 4, 8, 16, 64, 256}
			if cfg.Quick {
				windows = []int{1, 8, 256}
			}
			var pts []Point
			for _, w := range windows {
				w := w
				pts = append(pts, newPoint(fmt.Sprintf("w=%d", w), func(ctx context.Context, cfg Config) (tableRows, error) {
					m := core.J90()
					m.L = 100 // netDelay = 50 each way
					pt := core.NewPattern(addrs, m.Procs)
					open, err := cfg.RunSim(ctx, sim.Config{Machine: m}, pt)
					if err != nil {
						return nil, err
					}
					r, err := cfg.RunSim(ctx, sim.Config{Machine: m, Window: w}, pt)
					if err != nil {
						return nil, err
					}
					pred := m.PredictWindowed(n, w, 50)
					return oneRow(w, r.Cycles, pred, r.Cycles/pred, r.Cycles/open.Cycles), nil
				}))
			}
			return pts
		})
}
