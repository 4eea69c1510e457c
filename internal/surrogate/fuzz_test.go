package surrogate

import (
	"context"
	"math"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/sim"
)

// specFromFuzz maps raw fuzz bytes onto a valid SweepSpec: processor
// and bank counts snap to powers of two (the hashed families require
// it), delays and gaps clamp to the simulator's validated ranges, and
// the pattern family wraps. Every byte pattern yields an eligible
// config, so the fuzzers explore the model domain rather than the
// validation error paths.
func specFromFuzz(pExp, xExp, d, g, l, window, fam uint8, reg bool, seed uint64) SweepSpec {
	s := SweepSpec{
		Procs:  1 << (pExp%4 + 1), // 2..16
		X:      1 << (xExp % 5),   // 1..16
		D:      float64(d%30) + 1, // 1..30
		G:      float64(g%8) + 1,  // 1..8
		L:      float64(l % 64),   // 0..63
		Window: int(window % 9),   // 0..8
		Fam:    int(fam) % famCount,
		N:      1024,
		Seed:   seed,
	}
	if reg {
		s.Regulated = true
		s.RegWindow = float64(d%20) + 4
		s.RegBudget = int(g%3) + 1
	}
	return s
}

// FuzzSurrogateBounds property-tests the closed form on arbitrary
// eligible configs: predictions are positive and finite, respect the
// contention-free lower bound and the hot-bank drain bound, stay under
// a loose full-serialization upper bound, are monotone in d, g, n, and
// contention, and move continuously under small d perturbations.
func FuzzSurrogateBounds(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(6), uint8(1), uint8(16), uint8(0), uint8(0), false, uint64(1))
	f.Add(uint8(2), uint8(0), uint8(14), uint8(3), uint8(50), uint8(1), uint8(1), false, uint64(2))
	f.Add(uint8(0), uint8(4), uint8(2), uint8(1), uint8(0), uint8(8), uint8(2), false, uint64(3))
	f.Add(uint8(3), uint8(2), uint8(6), uint8(1), uint8(8), uint8(4), uint8(4), true, uint64(4))
	f.Add(uint8(1), uint8(1), uint8(20), uint8(2), uint8(32), uint8(2), uint8(5), false, uint64(5))
	f.Fuzz(func(t *testing.T, pExp, xExp, d, g, l, window, fam uint8, reg bool, seed uint64) {
		s := specFromFuzz(pExp, xExp, d, g, l, window, fam, reg, seed)
		cfg, pt := s.Build()
		res, err := Predict(cfg, pt)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		tPred := res.Cycles
		if tPred <= 0 || math.IsInf(tPred, 0) || math.IsNaN(tPred) {
			t.Fatalf("%+v: degenerate prediction %v", s, tPred)
		}

		c := cfg.Normalize()
		p := core.ComputeLoads(pt, c.BankMap)
		m := c.Machine
		dEff := m.D
		if s.Regulated {
			dEff = math.Max(dEff, s.RegWindow/float64(s.RegBudget))
		}
		h, k := float64(p.MaxH), float64(p.MaxK)

		// Contention-free lower bound: even an idle machine needs the last
		// injection, one service, and the round trip (the LogP-style floor).
		if lower := m.G*(h-1) + m.D + 2*c.NetDelay; tPred < lower-1e-9 {
			t.Fatalf("%+v: %v below contention-free bound %v", s, tPred, lower)
		}
		// Hot-bank drain bound: the busiest bank serializes its k services.
		if lower := dEff*(k-1) + m.D; tPred < lower-1e-9 {
			t.Fatalf("%+v: %v below drain bound %v", s, tPred, lower)
		}
		// Loose serialization upper bound: nothing overlaps, every request
		// pays issue + service + round trip in sequence (slack 4x covers
		// the closed-loop model's sub-unit utilization at tiny windows).
		if upper := 4 * float64(p.N) * (m.G + dEff + 2*c.NetDelay); tPred > upper {
			t.Fatalf("%+v: %v above serialization bound %v", s, tPred, upper)
		}

		// Monotone in d: doubling the service time never speeds things up.
		sd := s
		sd.D = s.D * 2
		if sd.Regulated {
			sd.RegWindow = s.RegWindow // regulation interval fixed; only D moves
		}
		cfgD, _ := sd.Build()
		resD, err := Predict(cfgD, pt)
		if err != nil {
			t.Fatal(err)
		}
		if resD.Cycles < tPred*(1-1e-9) {
			t.Fatalf("%+v: doubling d: %v -> %v", s, tPred, resD.Cycles)
		}

		// Monotone in g: a slower issue rate never speeds things up.
		sg := s
		sg.G = s.G * 2
		cfgG, _ := sg.Build()
		resG, err := Predict(cfgG, pt)
		if err != nil {
			t.Fatal(err)
		}
		if resG.Cycles < tPred*(1-1e-9) {
			t.Fatalf("%+v: doubling g: %v -> %v", s, tPred, resG.Cycles)
		}

		// Continuity across the g·h / d·k crossover: a 0.1% bump in d moves
		// the prediction by at most the worst-case slope (k per unit d) plus
		// iteration tolerance — no cliff where the dominating term flips.
		sc := s
		sc.D = s.D * 1.001
		cfgC, _ := sc.Build()
		resC, err := Predict(cfgC, pt)
		if err != nil {
			t.Fatal(err)
		}
		if jump := math.Abs(resC.Cycles - tPred); jump > 0.001*s.D*(k+1)+1e-3*tPred+1e-6 {
			t.Fatalf("%+v: discontinuous in d: %v -> %v (jump %v)", s, tPred, resC.Cycles, jump)
		}

		// Moments path: monotone in n and in per-location contention.
		st1, err := PredictStats(cfg, p.N, 1)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := PredictStats(cfg, 2*p.N, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Cycles < st1.Cycles*(1-1e-9) {
			t.Fatalf("%+v: doubling n: %v -> %v", s, st1.Cycles, st2.Cycles)
		}
		hot, err := PredictStats(cfg, p.N, p.N/4+1)
		if err != nil {
			t.Fatal(err)
		}
		if hot.Cycles < st1.Cycles*(1-1e-9) {
			t.Fatalf("%+v: raising contention: %v -> %v", s, st1.Cycles, hot.Cycles)
		}
	})
}

// FuzzSurrogateVsSim is the differential test: on arbitrary eligible
// configs the surrogate must stay inside the pinned per-regime error
// envelope, with slack for being off the validation sweep's exact grid
// (smaller n, unswept parameter corners). The corpus seeds every
// validation-sweep regime so `go test` exercises the bound even without
// a fuzz run.
func FuzzSurrogateVsSim(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(6), uint8(1), uint8(16), uint8(0), uint8(0), false, uint64(1))
	f.Add(uint8(2), uint8(0), uint8(14), uint8(3), uint8(50), uint8(1), uint8(1), false, uint64(2))
	f.Add(uint8(0), uint8(4), uint8(2), uint8(1), uint8(0), uint8(8), uint8(2), false, uint64(3))
	f.Add(uint8(3), uint8(2), uint8(6), uint8(1), uint8(8), uint8(4), uint8(0), true, uint64(4))
	f.Add(uint8(2), uint8(4), uint8(10), uint8(2), uint8(40), uint8(6), uint8(4), false, uint64(5))
	f.Add(uint8(3), uint8(0), uint8(30), uint8(1), uint8(0), uint8(1), uint8(3), false, uint64(6))
	f.Fuzz(func(t *testing.T, pExp, xExp, d, g, l, window, fam uint8, reg bool, seed uint64) {
		s := specFromFuzz(pExp, xExp, d, g, l, window, fam, reg, seed)
		cfg, pt := s.Build()
		res, err := sim.RunContext(context.Background(), cfg, pt)
		if err != nil {
			t.Fatalf("%+v: sim: %v", s, err)
		}
		pred, err := Predict(cfg, pt)
		if err != nil {
			t.Fatalf("%+v: surrogate: %v", s, err)
		}
		if res.Cycles <= 0 {
			t.Fatalf("%+v: zero-cycle simulation", s)
		}
		rel := math.Abs(pred.Cycles-res.Cycles) / res.Cycles
		if bound := MaxRelErr(cfg) + 0.15; rel > bound {
			t.Fatalf("%+v (regime %s): rel err %.3f exceeds pinned envelope + slack %.3f (sim %v, surrogate %v)",
				s, Regime(cfg), rel, bound, res.Cycles, pred.Cycles)
		}
	})
}
