package sim

import (
	"context"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// FuzzBatchVsScalar is the batch engine's differential property test:
// for a randomized lane count, per-lane machine shapes (d, x, g,
// NetDelay), per-lane bank disciplines and ragged per-lane issue
// windows, every lane of one batch run must equal — field for field —
// the event engine's run of that lane alone (NewEngine().Run: Run itself
// routes eligible lanes through the lockstep walk under test). This
// covers the whole lockstep regime (open- and closed-loop FIFO,
// ungrouped single-row DRAM, Regulated — including lanes that
// window-stall into the per-lane replay) and the embedded scalar fallback (grouped or multi-row DRAM,
// GPUShared, row-buffered FIFO) in the same batch, over the same
// address-pattern shapes FuzzSimVsReference draws.
//
// Under `go test` the seed corpus runs as a regression suite; under
// `go test -fuzz FuzzBatchVsScalar ./internal/sim/` the mutator explores
// the (K, p, lane params, discipline mix, window mix, pattern) space.
func FuzzBatchVsScalar(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(3), uint16(200), uint8(0))
	f.Add(uint64(2), uint8(4), uint8(0), uint16(64), uint8(1))
	f.Add(uint64(3), uint8(8), uint8(7), uint16(999), uint8(2))
	f.Add(uint64(4), uint8(2), uint8(5), uint16(1), uint8(0))
	f.Add(uint64(5), uint8(16), uint8(2), uint16(500), uint8(1))
	f.Add(uint64(6), uint8(6), uint8(6), uint16(333), uint8(2))
	f.Add(uint64(7), uint8(3), uint8(1), uint16(777), uint8(2))
	f.Add(uint64(8), uint8(12), uint8(4), uint16(128), uint8(0))
	f.Add(uint64(9), uint8(5), uint8(3), uint16(400), uint8(0))
	f.Add(uint64(10), uint8(9), uint8(6), uint16(900), uint8(1))
	f.Add(uint64(11), uint8(15), uint8(2), uint16(650), uint8(2))
	f.Add(uint64(12), uint8(4), uint8(2), uint16(700), uint8(1)) // p = 3
	f.Add(uint64(13), uint8(5), uint8(6), uint16(900), uint8(0)) // p = 7

	f.Fuzz(func(t *testing.T, seed uint64, kRaw, pRaw uint8, nRaw uint16, shape uint8) {
		k := int(kRaw%16) + 1
		p := int(pRaw%8) + 1
		n := int(nRaw%1000) + 1
		rg := rng.New(seed)

		cfgs := make([]Config, k)
		for i := range cfgs {
			banks := p * (rg.Intn(16) + 1)
			d := float64(rg.Intn(12) + 1)
			g := float64(rg.Intn(4) + 1)
			nd := float64(rg.Intn(16))
			var bank BankConfig
			switch rg.Intn(7) {
			case 0, 1: // the paper's FIFO bank — the lockstep fast path
			case 2: // FIFO with row buffers: scalar fallback
				bank = BankConfig{
					CacheLines: 1 + rg.Intn(4),
					HitDelay:   float64(1 + rg.Intn(3)),
					RowWords:   1 << rg.Intn(7),
				}
			case 3: // row-buffer DRAM with bank groups: scalar fallback
				groups := 1 + rg.Intn(4)
				if groups > banks {
					groups = banks
				}
				bank = BankConfig{
					Discipline: DRAM,
					CacheLines: 1 + rg.Intn(2),
					HitDelay:   float64(1 + rg.Intn(3)),
					MissDelay:  float64(1 + rg.Intn(16)),
					RowWords:   1 << rg.Intn(7),
					Groups:     groups,
					GroupGap:   float64(rg.Intn(3)),
				}
			case 4: // ungrouped single-row DRAM: the lockstep DRAM class
				bank = BankConfig{
					Discipline: DRAM,
					CacheLines: rg.Intn(2), // 0 defaults to 1: both spellings eligible
					HitDelay:   float64(1 + rg.Intn(3)),
					MissDelay:  float64(1 + rg.Intn(16)),
					RowWords:   1 << rg.Intn(7),
				}
			case 5: // bandwidth-regulated banks: the lockstep Regulated class
				bank = BankConfig{
					Discipline: Regulated,
					RegWindow:  float64(1 + rg.Intn(32)),
					RegBudget:  1 + rg.Intn(4),
				}
			case 6: // GPU shared memory: scalar fallback
				bank = BankConfig{Discipline: GPUShared, WarpSize: 1 + rg.Intn(32)}
				if nd < 1 {
					nd = 1
				}
			}
			// Ragged issue windows: roughly two thirds of the non-GPU lanes
			// run closed-loop, each with its own window — tight windows
			// stall into the per-lane replay almost immediately.
			window := 0
			if bank.Discipline != GPUShared && rg.Intn(3) > 0 {
				window = 1 + rg.Intn(12)
			}
			cfgs[i] = Config{
				Machine:  core.Machine{Name: "fuzz", Procs: p, Banks: banks, D: d, G: g, L: 2 * nd},
				Window:   window,
				NetDelay: nd,
				Bank:     bank,
			}
		}

		addrs := make([]uint64, n)
		maxBanks := 0
		for _, c := range cfgs {
			if c.Machine.Banks > maxBanks {
				maxBanks = c.Machine.Banks
			}
		}
		for i := range addrs {
			switch shape % 3 {
			case 0: // uniform over a range much wider than the banks
				addrs[i] = rg.Uint64n(1 << 20)
			case 1: // conflict-heavy: a handful of hot locations
				addrs[i] = rg.Uint64n(uint64(maxBanks)/4 + 1)
			default: // bank-bursty: long runs on one bank
				addrs[i] = uint64(maxBanks) * uint64(i/8)
			}
		}
		pt := core.NewPattern(addrs, p)

		got, err := RunBatch(context.Background(), cfgs, pt)
		if err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		for i, cfg := range cfgs {
			want, err := NewEngine().Run(context.Background(), cfg, pt)
			if err != nil {
				t.Fatalf("lane %d scalar: %v", i, err)
			}
			if got[i] != want {
				t.Errorf("lane %d/%d (disc=%s banks=%d d=%g g=%g nd=%g fast=%t): batch %+v != scalar %+v",
					i, k, cfg.Bank.Discipline, cfg.Machine.Banks, cfg.Machine.D, cfg.Machine.G,
					cfg.NetDelay, BatchEligible(cfg), got[i], want)
			}
		}
	})
}
