package sim

import (
	"context"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// FuzzBatchVsScalar is the lockstep walk's differential property test:
// for a randomized config count, per-config machine shapes (d, x, g,
// NetDelay), bank disciplines and issue windows, Run of every config
// must equal — field for field — the event engine's run of it
// (NewEngine().Run: Run itself routes eligible configs through the
// lockstep walk under test). This covers the whole lockstep regime
// (open- and closed-loop FIFO, DRAM on integer and quarter-cycle
// delays, Regulated — including runs that window-stall into the replay —
// GPUShared warps, and open-loop FIFO behind network sections) and the
// row-buffered FIFO only the event engine serves, over the same
// address-pattern shapes FuzzSimVsReference draws.
//
// Every plain FIFO config is also run behind network sections, keeping
// its window: a sectioned copy with its own section count and gap,
// drawn from a second stream so the main stream — and with it every
// committed corpus entry — replays unchanged. Every DRAM and Regulated
// config likewise gets an off-grid copy from a third stream: delays in
// thirds of a cycle and a NetDelay in steps of 0.3, which put most of
// them off the 1/16-cycle grid, where the lockstep walk logs its
// deferred sums and sorts them into event order.
//
// Under `go test` the seed corpus runs as a regression suite; under
// `go test -fuzz FuzzBatchVsScalar ./internal/sim/` the mutator explores
// the (K, p, config params, discipline mix, window mix, pattern) space.
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
	f.Add(uint64(12), uint8(4), uint8(2), uint16(700), uint8(1))  // p = 3
	f.Add(uint64(13), uint8(5), uint8(6), uint16(900), uint8(0))  // p = 7
	f.Add(uint64(14), uint8(8), uint8(3), uint16(640), uint8(1))  // sections, hot banks
	f.Add(uint64(15), uint8(6), uint8(7), uint16(512), uint8(2))  // sections, bursty banks
	f.Add(uint64(16), uint8(10), uint8(0), uint16(300), uint8(1)) // p = 1 warps

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
			case 0, 1: // the paper's FIFO bank — the lockstep walk
			case 2: // FIFO with row buffers: event engine only
				bank = BankConfig{
					CacheLines: 1 + rg.Intn(4),
					HitDelay:   float64(1 + rg.Intn(3)),
					RowWords:   1 << rg.Intn(7),
				}
			case 3: // DRAM on quarter-cycle delays, misses sometimes
				// cheaper than hits: the lockstep DRAM class off the
				// integer grid
				bank = BankConfig{
					Discipline: DRAM,
					HitDelay:   float64(1+rg.Intn(12)) / 4,
					MissDelay:  float64(1+rg.Intn(64)) / 4,
					RowWords:   1 << rg.Intn(7),
				}
			case 4: // DRAM on integer delays: the lockstep DRAM class
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
			case 6: // GPU shared memory: the lockstep warp walk
				bank = BankConfig{Discipline: GPUShared, WarpSize: 1 + rg.Intn(32)}
				if nd < 1 {
					nd = 1
				}
			}
			// Issue windows: roughly two thirds of the non-GPU configs run
			// closed-loop, each with its own window — tight windows stall
			// into the replay almost immediately.
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

		secRg := rng.New(seed ^ 0x5ec7)
		for _, c := range cfgs {
			if c.Bank != (BankConfig{}) || c.Machine.Banks < 2 {
				continue
			}
			c.Machine.Sections = 2 + secRg.Intn(min(c.Machine.Banks-1, 8))
			c.Machine.SectionGap = float64(1+secRg.Intn(12)) / 4
			c.UseSections = true
			cfgs = append(cfgs, c)
		}

		// Off-grid copies, from a third stream so the other draws stay
		// unchanged.
		offRg := rng.New(seed ^ 0x0ff6)
		for _, c := range cfgs[:k] {
			switch c.Bank.Discipline {
			case DRAM:
				c.Bank.HitDelay = float64(1+offRg.Intn(12)) / 3
				c.Bank.MissDelay = float64(1+offRg.Intn(64)) / 3
			case Regulated:
				c.Bank.RegWindow = float64(1+offRg.Intn(96)) / 3
			default:
				continue
			}
			c.NetDelay = 0.3 * float64(offRg.Intn(16))
			cfgs = append(cfgs, c)
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

		for i, cfg := range cfgs {
			got, err := Run(cfg, pt)
			if err != nil {
				t.Fatalf("config %d Run: %v", i, err)
			}
			want, err := NewEngine().Run(context.Background(), cfg, pt)
			if err != nil {
				t.Fatalf("config %d event engine: %v", i, err)
			}
			if got != want {
				t.Errorf("config %d/%d (disc=%s banks=%d sections=%d d=%g g=%g nd=%g window=%d lockstep=%t): Run %+v != event engine %+v",
					i, len(cfgs), cfg.Bank.Discipline, cfg.Machine.Banks, cfg.Machine.Sections, cfg.Machine.D,
					cfg.Machine.G, cfg.NetDelay, cfg.Window, BatchEligible(cfg), got, want)
			}
		}
	})
}
