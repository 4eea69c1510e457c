package sim

import (
	"context"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// FuzzSimVsReference is the differential property test behind the engine
// rewrite: the event-driven engine, Run (which routes lockstep-eligible
// configs to the lockstep walk) and the independent per-clock
// RunReference oracle must produce identical Results on randomized
// machine shapes, every bank service discipline, windows, network
// sections, combining, DRAM bank groups, dyadic fractional delays, and
// uniform, conflict-heavy and bank-bursty address patterns.
//
// The draws pack into the fixed argument list: shape%3 picks the address
// pattern and shape/3%5 the delay grain 2^-k; discRaw%5 picks the
// discipline and the bits of discRaw/5 turn on a window (1), sections
// (2), combining (4) and, under DRAM, bank groups (8).
//
// Under `go test` the seed corpus runs as a regression suite; under
// `go test -fuzz FuzzSimVsReference ./internal/sim/` the mutator explores
// the space.
func FuzzSimVsReference(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(7), uint8(4), uint8(0), uint8(3), uint16(200), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint16(1), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(7), uint8(15), uint8(11), uint8(3), uint8(15), uint16(999), uint8(2), uint8(0))
	f.Add(uint64(4), uint8(1), uint8(2), uint8(5), uint8(2), uint8(8), uint16(500), uint8(1), uint8(1))
	f.Add(uint64(5), uint8(5), uint8(1), uint8(1), uint8(0), uint8(0), uint16(333), uint8(2), uint8(2))
	f.Add(uint64(6), uint8(3), uint8(3), uint8(6), uint8(1), uint8(2), uint16(400), uint8(1), uint8(3))
	f.Add(uint64(7), uint8(2), uint8(4), uint8(2), uint8(0), uint8(4), uint16(600), uint8(0), uint8(4))
	f.Add(uint64(8), uint8(6), uint8(2), uint8(9), uint8(2), uint8(1), uint16(250), uint8(2), uint8(9))
	f.Add(uint64(9), uint8(3), uint8(1), uint8(7), uint8(1), uint8(6), uint16(300), uint8(1), uint8(5))       // window
	f.Add(uint64(10), uint8(0), uint8(3), uint8(2), uint8(9), uint8(20), uint16(120), uint8(1), uint8(10))    // sections, NetDelay > 0
	f.Add(uint64(11), uint8(7), uint8(7), uint8(5), uint8(0), uint8(0), uint16(700), uint8(0), uint8(10))     // sections, NetDelay 0
	f.Add(uint64(12), uint8(2), uint8(0), uint8(9), uint8(0), uint8(2), uint16(500), uint8(1), uint8(20))     // combining
	f.Add(uint64(13), uint8(4), uint8(1), uint8(6), uint8(1), uint8(4), uint16(400), uint8(2), uint8(42))     // DRAM groups
	f.Add(uint64(14), uint8(5), uint8(2), uint8(40), uint8(7), uint8(37), uint16(600), uint8(7), uint8(3))    // Regulated, quarter delays
	f.Add(uint64(15), uint8(3), uint8(1), uint8(99), uint8(21), uint8(50), uint16(800), uint8(13), uint8(77)) // everything, 1/16 grain
	f.Add(uint64(16), uint8(3), uint8(0), uint8(3), uint8(0), uint8(0), uint16(500), uint8(1), uint8(4))      // GPUShared, NetDelay 0
	f.Add(uint64(17), uint8(2), uint8(1), uint8(7), uint8(0), uint8(0), uint16(600), uint8(1), uint8(5))      // window, p = 3, NetDelay 0
	f.Add(uint64(18), uint8(4), uint8(2), uint8(9), uint8(1), uint8(5), uint16(800), uint8(2), uint8(8))      // Regulated window, p = 5

	f.Fuzz(func(t *testing.T, seed uint64, pRaw, xRaw, dRaw, gRaw, ndRaw uint8, nRaw uint16, shape, discRaw uint8) {
		den := 1 << (int(shape/3) % 5)
		grain := func(raw, span int) float64 { return float64(raw%(span*den)) / float64(den) }
		p := int(pRaw%8) + 1
		banks := p * (int(xRaw%16) + 1)
		d := grain(int(dRaw), 12) + 1
		g := grain(int(gRaw), 4) + 1
		nd := grain(int(ndRaw), 16)
		n := int(nRaw%1000) + 1
		features := discRaw / 5

		rg := rng.New(seed)
		delay := func(span int) float64 { return grain(rg.Intn(span*den), span) + 1 }
		var bank BankConfig
		switch discRaw % 5 {
		case 0: // the paper's FIFO bank
		case 1: // FIFO with the HS93 row-buffer ablation
			bank = BankConfig{
				CacheLines: 1 + rg.Intn(4),
				HitDelay:   delay(3),
				RowWords:   1 << rg.Intn(7),
			}
		case 2: // row-buffer DRAM
			bank = BankConfig{
				Discipline: DRAM,
				CacheLines: 1 + rg.Intn(2),
				HitDelay:   delay(3),
				MissDelay:  delay(16),
				RowWords:   1 << rg.Intn(7),
			}
			if features&8 != 0 {
				bank.Groups = 1 + rg.Intn(banks)
				bank.GroupGap = delay(4)
			}
		case 3: // bandwidth-regulated banks
			bank = BankConfig{
				Discipline: Regulated,
				RegWindow:  delay(32),
				RegBudget:  1 + rg.Intn(4),
			}
		case 4: // GPU shared memory: warp-synchronous, so no window,
			// sections or combining
			bank = BankConfig{Discipline: GPUShared, WarpSize: 1 + rg.Intn(32)}
			features = 0
		}
		// L = 2*NetDelay keeps the explicit NetDelay and the Normalize
		// default (L/2) consistent.
		m := core.Machine{Name: "fuzz", Procs: p, Banks: banks, D: d, G: g, L: 2 * nd}
		cfg := Config{Machine: m, NetDelay: nd, Bank: bank, Combining: features&4 != 0}
		if features&1 != 0 {
			cfg.Window = 1 + rg.Intn(8)
		}
		if features&2 != 0 {
			cfg.Machine.Sections = min(2+rg.Intn(4), banks)
			cfg.Machine.SectionGap = delay(4)
			cfg.UseSections = true
		}
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

		ref, err := RunReference(cfg, pt)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		check := func(name string, got Result, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != ref {
				t.Errorf("%s: %+v n=%d shape=%d:\n got:       %+v\n reference: %+v",
					name, cfg, n, shape%3, got, ref)
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
