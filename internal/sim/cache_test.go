package sim

import (
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// Tests for the cached-DRAM bank extension ([HS93]).

func TestBankCacheHotSpotCollapses(t *testing.T) {
	// All requests to one address: with a row buffer, only the first
	// access pays d; the rest hit at Bank.HitDelay.
	m := testMachine() // d = 6
	n := 512
	pt := core.NewPattern(constAddrs(n, 9), m.Procs)
	cold, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Run(Config{Machine: m, Bank: BankConfig{CacheLines: 4}}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if hot.RowHits != n-1 {
		t.Errorf("RowHits = %d, want %d", hot.RowHits, n-1)
	}
	// Service cost drops from ~n*d to ~n*1.
	if hot.Cycles > cold.Cycles/3 {
		t.Errorf("cached hot spot %v vs uncached %v", hot.Cycles, cold.Cycles)
	}
}

func TestBankCacheRowGranularity(t *testing.T) {
	// Addresses within one 32-word row hit; addresses in different rows
	// alternate and (with 1 line) always miss.
	m := testMachine()
	sameRow := make([]uint64, 64)
	for i := range sameRow {
		sameRow[i] = uint64(i % 32) // one row at shift 5... all map to banks 0..31 though
	}
	// Use a single bank's row: addresses differing by banks*k keep the
	// same bank (64 banks), rows differ every 32 words.
	for i := range sameRow {
		sameRow[i] = 0 // same word: same row, same bank
	}
	pt := core.NewPattern(sameRow, m.Procs)
	r, err := Run(Config{Machine: m, Bank: BankConfig{CacheLines: 1}}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowHits != len(sameRow)-1 {
		t.Errorf("same-row hits = %d, want %d", r.RowHits, len(sameRow)-1)
	}

	// Two alternating rows, one line: every access misses after the first
	// (thrash). Rows at addr 0 and addr 64*32 (same bank 0 under 64-bank
	// interleave, different rows).
	alt := make([]uint64, 64)
	for i := range alt {
		if i%2 == 0 {
			alt[i] = 0
		} else {
			alt[i] = 64 * 32
		}
	}
	pt = core.NewPattern(alt, 1) // single proc: strictly alternating arrival
	r, err = Run(Config{Machine: m, Bank: BankConfig{CacheLines: 1}}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowHits != 0 {
		t.Errorf("thrash hits = %d, want 0", r.RowHits)
	}
	// With two lines both rows fit: all but the first two hit.
	r, err = Run(Config{Machine: m, Bank: BankConfig{CacheLines: 2}}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowHits != len(alt)-2 {
		t.Errorf("2-line hits = %d, want %d", r.RowHits, len(alt)-2)
	}
}

func TestBankCacheOffByDefault(t *testing.T) {
	m := testMachine()
	pt := core.NewPattern(constAddrs(32, 5), m.Procs)
	r, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowHits != 0 {
		t.Errorf("RowHits = %d with caching disabled", r.RowHits)
	}
}

func TestBankCacheRandomPatternNeutral(t *testing.T) {
	// A wide random pattern rarely hits the row buffer, so caching should
	// neither help much nor hurt.
	m := testMachine()
	g := rng.New(4)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = g.Uint64n(1 << 30)
	}
	pt := core.NewPattern(addrs, m.Procs)
	off, err := Run(Config{Machine: m}, pt)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(Config{Machine: m, Bank: BankConfig{CacheLines: 4}}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if on.Cycles > off.Cycles*1.01 {
		t.Errorf("caching hurt a random pattern: %v vs %v", on.Cycles, off.Cycles)
	}
	if float64(on.RowHits) > 0.05*float64(len(addrs)) {
		t.Errorf("implausible hit count %d on random pattern", on.RowHits)
	}
}

func TestBankCacheDeterministic(t *testing.T) {
	m := testMachine()
	g := rng.New(5)
	addrs := make([]uint64, 2000)
	for i := range addrs {
		addrs[i] = g.Uint64n(1 << 12)
	}
	pt := core.NewPattern(addrs, m.Procs)
	cfg := Config{Machine: m, Bank: BankConfig{CacheLines: 2, HitDelay: 2, RowWords: 1 << 4}}
	a, err := Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic with caching: %+v vs %+v", a, b)
	}
}
