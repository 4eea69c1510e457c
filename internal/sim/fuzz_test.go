package sim

import (
	"context"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// FuzzSimVsReference is the differential property test behind the engine
// rewrite: the event-driven engine, Run (which routes open-loop eligible
// configs to the lockstep walk) and the independent time-stepped
// RunReference oracle must agree exactly — cycle for cycle — on every
// configuration in the oracle's supported subset (open loop, no
// combining, no sections, integral delays), over randomized machine
// shapes, every bank service discipline, and both uniform and
// conflict-heavy address patterns.
//
// Under `go test` the seed corpus runs as a regression suite; under
// `go test -fuzz FuzzSimVsReference ./internal/sim/` the mutator explores
// the (p, x, d, g, NetDelay, discipline, pattern) space.
func FuzzSimVsReference(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(7), uint8(4), uint8(0), uint8(3), uint16(200), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint16(1), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(7), uint8(15), uint8(11), uint8(3), uint8(15), uint16(999), uint8(2), uint8(0))
	f.Add(uint64(4), uint8(1), uint8(2), uint8(5), uint8(2), uint8(8), uint16(500), uint8(1), uint8(1))
	f.Add(uint64(5), uint8(5), uint8(1), uint8(1), uint8(0), uint8(0), uint16(333), uint8(2), uint8(2))
	f.Add(uint64(6), uint8(3), uint8(3), uint8(6), uint8(1), uint8(2), uint16(400), uint8(1), uint8(3))
	f.Add(uint64(7), uint8(2), uint8(4), uint8(2), uint8(0), uint8(4), uint16(600), uint8(0), uint8(4))
	f.Add(uint64(8), uint8(6), uint8(2), uint8(9), uint8(2), uint8(1), uint16(250), uint8(2), uint8(9))

	f.Fuzz(func(t *testing.T, seed uint64, pRaw, xRaw, dRaw, gRaw, ndRaw uint8, nRaw uint16, shape, discRaw uint8) {
		p := int(pRaw%8) + 1
		banks := p * (int(xRaw%16) + 1)
		d := float64(dRaw%12 + 1)
		g := float64(gRaw%4 + 1)
		nd := float64(ndRaw % 16)
		n := int(nRaw%1000) + 1

		rg := rng.New(seed)
		// Draw a bank discipline within the oracle's supported subset:
		// integral delays, no DRAM bank groups (the wheel-vs-heap
		// differential covers those), NetDelay >= 1 under GPUShared.
		var bank BankConfig
		switch discRaw % 5 {
		case 0: // the paper's FIFO bank
		case 1: // FIFO with the HS93 row-buffer ablation
			bank = BankConfig{
				CacheLines: 1 + rg.Intn(4),
				HitDelay:   float64(1 + rg.Intn(3)),
				RowWords:   1 << rg.Intn(7),
			}
		case 2: // row-buffer DRAM
			bank = BankConfig{
				Discipline: DRAM,
				CacheLines: 1 + rg.Intn(2),
				HitDelay:   float64(1 + rg.Intn(3)),
				MissDelay:  float64(1 + rg.Intn(16)),
				RowWords:   1 << rg.Intn(7),
			}
		case 3: // bandwidth-regulated banks
			bank = BankConfig{
				Discipline: Regulated,
				RegWindow:  float64(1 + rg.Intn(32)),
				RegBudget:  1 + rg.Intn(4),
			}
		case 4: // GPU shared memory
			bank = BankConfig{Discipline: GPUShared, WarpSize: 1 + rg.Intn(32)}
			if nd < 1 {
				nd = 1
			}
		}
		// L = 2*NetDelay keeps the explicit NetDelay and the Normalize
		// default (L/2) consistent, and keeps it integral for the oracle.
		m := core.Machine{Name: "fuzz", Procs: p, Banks: banks, D: d, G: g, L: 2 * nd}
		addrs := make([]uint64, n)
		for i := range addrs {
			switch shape % 3 {
			case 0: // uniform over a range much wider than the banks
				addrs[i] = rg.Uint64n(1 << 20)
			case 1: // conflict-heavy: a handful of hot locations
				addrs[i] = rg.Uint64n(uint64(banks)/4 + 1)
			default: // bank-bursty: long runs on one bank
				addrs[i] = uint64(banks) * uint64(i/8)
			}
		}
		pt := core.NewPattern(addrs, p)
		cfg := Config{Machine: m, NetDelay: nd, Bank: bank}

		ref, err := RunReference(cfg, pt)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		check := func(name string, ev Result, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ev.Cycles != ref.Cycles {
				t.Errorf("%s: p=%d banks=%d d=%g g=%g nd=%g n=%d shape=%d disc=%s: %v cycles, reference %v",
					name, p, banks, d, g, nd, n, shape%3, bank.Discipline, ev.Cycles, ref.Cycles)
			}
			if ev.BankServices != ref.BankServices || ev.BankBusy != ref.BankBusy || ev.Requests != ref.Requests {
				t.Errorf("%s: p=%d banks=%d d=%g g=%g nd=%g n=%d shape=%d disc=%s: accounting mismatch: %+v vs reference %+v",
					name, p, banks, d, g, nd, n, shape%3, bank.Discipline, ev, ref)
			}
			if ev.RowHits != ref.RowHits || ev.RowConflicts != ref.RowConflicts ||
				ev.ThrottleStalls != ref.ThrottleStalls || ev.ThrottleStallCycles != ref.ThrottleStallCycles ||
				ev.WarpReplays != ref.WarpReplays {
				t.Errorf("%s: p=%d banks=%d d=%g g=%g nd=%g n=%d shape=%d disc=%s: discipline counters mismatch: %+v vs reference %+v",
					name, p, banks, d, g, nd, n, shape%3, bank.Discipline, ev, ref)
			}
		}
		// Run picks the lockstep walk or the event engine per config;
		// NewEngine().Run is always the event engine. Both must match.
		routed, err := Run(cfg, pt)
		check("Run", routed, err)
		events, err := NewEngine().Run(context.Background(), cfg, pt)
		check("event engine", events, err)
	})
}
