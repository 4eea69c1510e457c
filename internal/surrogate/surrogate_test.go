package surrogate

import (
	"errors"
	"math"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
)

func testMachine(p, x int) core.Machine {
	return core.Machine{Name: "t", Procs: p, Banks: p * x, D: 6, G: 1, L: 16}
}

func TestEligibleTypedErrors(t *testing.T) {
	base := sim.Config{Machine: testMachine(4, 4)}
	cases := []struct {
		name    string
		mutate  func(*sim.Config)
		feature string // "" means eligible
	}{
		{"fifo", func(c *sim.Config) {}, ""},
		{"fifo windowed", func(c *sim.Config) { c.Window = 4 }, ""},
		{"regulated", func(c *sim.Config) {
			c.Bank = sim.BankConfig{Discipline: sim.Regulated, RegWindow: 12, RegBudget: 2}
		}, ""},
		{"dram", func(c *sim.Config) {
			c.Bank = sim.BankConfig{Discipline: sim.DRAM}
		}, "Bank.Discipline"},
		{"gpu", func(c *sim.Config) {
			c.Bank = sim.BankConfig{Discipline: sim.GPUShared}
		}, "Bank.Discipline"},
		{"fifo cache lines", func(c *sim.Config) {
			c.Bank = sim.BankConfig{Discipline: sim.FIFO, CacheLines: 8}
		}, "Bank.CacheLines"},
		{"sections", func(c *sim.Config) {
			c.UseSections = true
			c.Machine.Sections = 4
			c.Machine.SectionGap = 1
		}, "UseSections"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		err := Eligible(cfg)
		if tc.feature == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		var ue *UnsupportedError
		if !errors.As(err, &ue) {
			t.Errorf("%s: want *UnsupportedError, got %v", tc.name, err)
			continue
		}
		if ue.Feature != tc.feature {
			t.Errorf("%s: feature %q, want %q", tc.name, ue.Feature, tc.feature)
		}
	}
	// Invalid configs surface the simulator's own validation errors, not
	// an eligibility error.
	bad := sim.Config{Machine: core.Machine{Procs: 0, Banks: 4, D: 1, G: 1}}
	if err := Eligible(bad); err == nil {
		t.Error("invalid machine accepted")
	} else {
		var ue *UnsupportedError
		if errors.As(err, &ue) {
			t.Errorf("invalid machine returned UnsupportedError %v; want validation error", err)
		}
	}
}

// TestPredictSerializedBank pins the drain-dominated corner exactly:
// every request to one address means the single hot bank serializes all
// n services, so T = d·n + 2·NetDelay.
func TestPredictSerializedBank(t *testing.T) {
	m := testMachine(4, 4)
	n := 64
	pt := core.NewPattern(make([]uint64, n), m.Procs) // all address 0
	cfg := sim.Config{Machine: m}
	res, err := Predict(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := m.D*float64(n) + m.L // NetDelay defaults to L/2 each way
	if math.Abs(res.Cycles-want) > 1e-9 {
		t.Errorf("all-same cycles %v, want %v", res.Cycles, want)
	}
	if !res.Analytic {
		t.Error("surrogate result not tagged Analytic")
	}
	if res.MaxBankServed != n {
		t.Errorf("MaxBankServed = %d, want %d", res.MaxBankServed, n)
	}
}

// TestPredictConflictFree pins the injection-dominated corner: n
// requests spread one-per-bank leave the last processor at g·(h-1) and
// see an idle bank, so T = g·(h-1) + d + 2·NetDelay.
func TestPredictConflictFree(t *testing.T) {
	m := core.Machine{Name: "t", Procs: 4, Banks: 64, D: 6, G: 3, L: 16}
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(i) // one request per bank under interleaving
	}
	pt := core.NewPattern(addrs, m.Procs)
	cfg := sim.Config{Machine: m}
	res, err := Predict(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	h := float64(64 / m.Procs)
	want := m.G*(h-1) + m.D + m.L
	if math.Abs(res.Cycles-want) > 1e-9 {
		t.Errorf("conflict-free cycles %v, want %v", res.Cycles, want)
	}
}

// TestPredictWindowLatencyBound pins the closed-loop w=1 single-proc
// corner: one slot circulating through a 2·NetDelay wire and an idle
// bank sustains 1/(2·nd + d) requests per cycle, so T ≈ n·(2·nd + d).
func TestPredictWindowLatencyBound(t *testing.T) {
	m := core.Machine{Name: "t", Procs: 1, Banks: 64, D: 4, G: 1, L: 100}
	n := 256
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i % 64)
	}
	pt := core.NewPattern(addrs, 1)
	cfg := sim.Config{Machine: m, Window: 1}
	res, err := Predict(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * (m.L + m.D) // zDelay = 2·(L/2) = L per round trip
	if math.Abs(res.Cycles-want)/want > 1e-9 {
		t.Errorf("w=1 cycles %v, want %v", res.Cycles, want)
	}
}

func TestRegimeClassification(t *testing.T) {
	cases := []struct {
		cfg  sim.Config
		want string
	}{
		{sim.Config{Machine: testMachine(4, 16)}, "fifo/open/matched"},
		{sim.Config{Machine: testMachine(4, 2)}, "fifo/open/starved"},
		{sim.Config{Machine: testMachine(4, 16), Window: 8}, "fifo/windowed/matched"},
		{sim.Config{Machine: testMachine(4, 2), Window: 8,
			Bank: sim.BankConfig{Discipline: sim.Regulated, RegWindow: 12, RegBudget: 2}},
			"regulated/windowed/starved"},
	}
	for _, tc := range cases {
		if got := Regime(tc.cfg); got != tc.want {
			t.Errorf("Regime(%+v) = %q, want %q", tc.cfg.Machine, got, tc.want)
		}
	}
}

// TestCrossoverContinuity sweeps d finely through the g·h = d·k
// crossover and requires the prediction to move by at most the model's
// worst-case slope (k per unit d) — no jump discontinuity where the
// dominating term flips.
func TestCrossoverContinuity(t *testing.T) {
	s := SweepSpec{Procs: 8, X: 4, D: 1, G: 2, L: 16, Fam: FamZipf, N: 2048, Seed: 11}
	cfg, pt := s.Build()
	p := core.ComputeLoads(pt, cfg.Normalize().BankMap)
	const step = 0.01
	prev := math.NaN()
	for d := 0.2; d < 6; d += step {
		cfg.Machine.D = d
		res, err := Predict(cfg, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(prev) {
			if jump := math.Abs(res.Cycles - prev); jump > step*float64(p.MaxK+1)+1e-6 {
				t.Fatalf("discontinuity at d=%.2f: %v -> %v", d, prev, res.Cycles)
			}
		}
		prev = res.Cycles
	}
}

func TestPinnedEnvelopeLoads(t *testing.T) {
	e := Pinned()
	if e.Points == 0 || len(e.Regimes) == 0 {
		t.Fatalf("embedded envelope empty: %+v", e)
	}
	if b := MaxRelErr(sim.Config{Machine: testMachine(4, 16)}); b <= 0 || b > 1 {
		t.Errorf("pinned bound for open/matched out of range: %v", b)
	}
	// Unknown regimes report the worst pinned bound.
	dram := sim.Config{Machine: testMachine(4, 16),
		Bank: sim.BankConfig{Discipline: sim.DRAM}}
	worst := 0.0
	for _, st := range e.Regimes {
		worst = math.Max(worst, st.MaxRelErr)
	}
	if got := MaxRelErr(dram); got != worst {
		t.Errorf("unswept regime bound %v, want worst %v", got, worst)
	}
}

// Predict reads only h and k, so at the F14 corner (p=4096, x=64,
// n=262144) it allocates the per-bank histogram and the config
// normalization's boxing, nothing n-sized: a copy or sort of the
// addresses would show here as extra allocations.
func TestPredictAllocs(t *testing.T) {
	const p, x = 4096, 64
	cfg := sim.Config{Machine: testMachine(p, x)}
	pt := core.NewPattern(patterns.Uniform(64*p, 1<<40, rng.New(1)), p)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Predict(cfg, pt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("Predict made %v allocs/op at p=%d x=%d, want <= 3", allocs, p, x)
	}
}
