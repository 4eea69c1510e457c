package sim

import (
	"errors"
	"testing"

	"dxbsp/internal/core"
)

func TestDisciplineStringParseRoundTrip(t *testing.T) {
	for _, d := range Disciplines() {
		got, err := ParseDiscipline(d.String())
		if err != nil {
			t.Errorf("ParseDiscipline(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("ParseDiscipline(%q) = %v, want %v", d.String(), got, d)
		}
	}
	for _, alias := range []string{"gpushared", "gpu-shared"} {
		if d, err := ParseDiscipline(alias); err != nil || d != GPUShared {
			t.Errorf("ParseDiscipline(%q) = %v, %v; want GPUShared", alias, d, err)
		}
	}
	if _, err := ParseDiscipline("lifo"); err == nil {
		t.Error("ParseDiscipline accepted an unknown name")
	}
	if s := Discipline(9).String(); s != "discipline(9)" {
		t.Errorf("unknown tag renders as %q", s)
	}
}

// Bank.RowWords encodes set/unset explicitly, so RowWords: 1 survives
// Normalize and actually simulates one-word rows, while zero still means
// "default 32 words".
func TestOneWordRowRepresentable(t *testing.T) {
	m := core.Machine{Name: "row", Procs: 1, Banks: 1, D: 4, G: 1, L: 0}
	pt := core.NewPattern([]uint64{0, 1, 0, 1}, 1)

	one := Config{Machine: m, Bank: BankConfig{CacheLines: 1, RowWords: 1}}
	if n := one.Normalize(); n.Bank.RowWords != 1 {
		t.Fatalf("Normalize rewrote RowWords 1 to %d", n.Bank.RowWords)
	}
	r1, err := Run(one, pt)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses 0 and 1 are distinct one-word rows; with a single line
	// they evict each other, so nothing ever hits.
	if r1.RowHits != 0 {
		t.Errorf("one-word rows: %d row hits, want 0", r1.RowHits)
	}

	// RowWords 0 is the default, 32-word rows, so 0 and 1 share a row and
	// three accesses hit.
	def := Config{Machine: m, Bank: BankConfig{CacheLines: 1}}
	if n := def.Normalize(); n.Bank.RowWords != 32 {
		t.Fatalf("default rows normalized to RowWords %d, want 32", n.Bank.RowWords)
	}
	r32, err := Run(def, pt)
	if err != nil {
		t.Fatal(err)
	}
	if r32.RowHits != 3 {
		t.Errorf("default rows: %d row hits, want 3", r32.RowHits)
	}
}

// DRAM row accounting on a hand-traced pattern: one processor, one bank,
// rows of 4 words, a single open row. Accesses 0, 1, 4, 0 are rows
// 0, 0, 1, 0 — miss, hit, conflict, conflict — serialized on the bank:
// 8 + 1 + 8 + 8 = 25 cycles of busy time and a last done at 25.
func TestDRAMRowHitAndConflictCounting(t *testing.T) {
	cfg := Config{
		Machine: core.Machine{Name: "dram", Procs: 1, Banks: 1, D: 8, G: 1, L: 0},
		Bank:    BankConfig{Discipline: DRAM, CacheLines: 1, HitDelay: 1, MissDelay: 8, RowWords: 4},
	}
	r, err := Run(cfg, core.NewPattern([]uint64{0, 1, 4, 0}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.RowHits != 1 || r.RowConflicts != 3 {
		t.Errorf("hits=%d conflicts=%d, want 1 and 3", r.RowHits, r.RowConflicts)
	}
	if r.Cycles != 25 || r.BankBusy != 25 {
		t.Errorf("cycles=%g busy=%g, want 25 and 25", r.Cycles, r.BankBusy)
	}
}

// Bank-group gating: four banks in one group with a 2-cycle start gap.
// Four simultaneous arrivals to distinct banks start at 0, 2, 4, 6 instead
// of all at 0, so the last of the 4-cycle services finishes at 10.
func TestDRAMBankGroupGating(t *testing.T) {
	m := core.Machine{Name: "grp", Procs: 4, Banks: 4, D: 4, G: 1, L: 0}
	pt := core.NewPattern([]uint64{0, 1, 2, 3}, 4)

	grouped := Config{Machine: m, Bank: BankConfig{Discipline: DRAM, MissDelay: 4, Groups: 1, GroupGap: 2}}
	rg, err := Run(grouped, pt)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Cycles != 10 {
		t.Errorf("grouped cycles = %g, want 10", rg.Cycles)
	}

	flat := Config{Machine: m, Bank: BankConfig{Discipline: DRAM, MissDelay: 4}}
	rf, err := Run(flat, pt)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Cycles != 4 {
		t.Errorf("ungrouped cycles = %g, want 4", rf.Cycles)
	}
}

// Regulated budget math, hand-traced: one bank, 2-cycle services, budget 2
// per 10-cycle window, five back-to-back requests. Services 1 and 2 run at
// 0 and 2; service 3 exhausts window 0 and is deferred to 10 (a 6-cycle
// stall); service 4 runs at 12; service 5 exhausts window 1 and is
// deferred to 20 (another 6-cycle stall), finishing at 22.
func TestRegulatedBudgetAccounting(t *testing.T) {
	cfg := Config{
		Machine: core.Machine{Name: "reg", Procs: 1, Banks: 1, D: 2, G: 1, L: 0},
		Bank:    BankConfig{Discipline: Regulated, RegWindow: 10, RegBudget: 2},
	}
	r, err := Run(cfg, core.NewPattern([]uint64{0, 0, 0, 0, 0}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.ThrottleStalls != 2 || r.ThrottleStallCycles != 12 {
		t.Errorf("stalls=%d stallCycles=%g, want 2 and 12", r.ThrottleStalls, r.ThrottleStallCycles)
	}
	if r.Cycles != 22 {
		t.Errorf("cycles = %g, want 22", r.Cycles)
	}
}

// GPU shared-memory conflict degrees: one warp of 8 lanes over 32 banks
// (D=1, G=1, NetDelay=1). With word stride s, lanes hit 32/gcd... —
// concretely, the warp's completion time grows by one cycle per extra
// lane serialized on the most-conflicted bank, and every lane that could
// not start on arrival counts as a replay.
func TestGPUSharedConflictSerialization(t *testing.T) {
	m := core.Machine{Name: "sm", Procs: 1, Banks: 32, D: 1, G: 1, L: 2}
	bank := BankConfig{Discipline: GPUShared, WarpSize: 8}
	warp := func(strideWords uint64) core.Pattern {
		addrs := make([]uint64, 8)
		for i := range addrs {
			addrs[i] = uint64(i) * strideWords * 4 // byte addresses, 4-byte words
		}
		return core.NewPattern(addrs, 1)
	}
	for _, tc := range []struct {
		stride  uint64
		degree  int // lanes serialized on each touched bank
		cycles  float64
		replays int
	}{
		{1, 1, 3, 0},   // conflict-free: issue 0, arrive 1, done 2, respond 3
		{16, 4, 6, 6},  // banks 0 and 16, four lanes each
		{32, 8, 10, 7}, // all eight lanes on bank 0
	} {
		r, err := Run(Config{Machine: m, Bank: bank}, warp(tc.stride))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != tc.cycles || r.WarpReplays != tc.replays {
			t.Errorf("stride %d (degree %d): cycles=%g replays=%d, want %g and %d",
				tc.stride, tc.degree, r.Cycles, r.WarpReplays, tc.cycles, tc.replays)
		}
	}
}

// The warp barrier: with WarpSize 4 and eight conflict-free accesses, the
// second warp issues only after the first warp's last response (cycle 3),
// so the run takes exactly two warp round-trips.
func TestGPUSharedWarpBarrier(t *testing.T) {
	m := core.Machine{Name: "sm", Procs: 1, Banks: 32, D: 1, G: 1, L: 2}
	cfg := Config{Machine: m, Bank: BankConfig{Discipline: GPUShared, WarpSize: 4}}
	addrs := make([]uint64, 8)
	for i := range addrs {
		addrs[i] = uint64(i) * 4
	}
	r, err := Run(cfg, core.NewPattern(addrs, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 6 {
		t.Errorf("cycles = %g, want 6 (two 3-cycle warp round-trips)", r.Cycles)
	}
	if r.WarpReplays != 0 {
		t.Errorf("conflict-free warps counted %d replays", r.WarpReplays)
	}
}

// validateBank names the offending field: knobs set on a discipline that
// does not read them fail loudly instead of simulating something else.
func TestValidateBankErrorFields(t *testing.T) {
	m := core.Machine{Name: "v", Procs: 2, Banks: 8, D: 2, G: 1, L: 0}
	sectioned := core.Machine{Name: "vs", Procs: 2, Banks: 8, D: 2, G: 1, L: 0, Sections: 2, SectionGap: 1}
	for _, tc := range []struct {
		name  string
		field string
		cfg   Config
	}{
		{"unknown tag", "Bank.Discipline", Config{Machine: m, Bank: BankConfig{Discipline: Discipline(9)}}},
		{"negative cache", "Bank.CacheLines", Config{Machine: m, Bank: BankConfig{CacheLines: -1}}},
		{"negative hit", "Bank.HitDelay", Config{Machine: m, Bank: BankConfig{CacheLines: 1, HitDelay: -1}}},
		{"non-power-of-two row", "Bank.RowWords", Config{Machine: m, Bank: BankConfig{CacheLines: 1, RowWords: 3}}},
		{"fifo miss delay", "Bank.MissDelay", Config{Machine: m, Bank: BankConfig{MissDelay: 2}}},
		{"fifo groups", "Bank.Groups", Config{Machine: m, Bank: BankConfig{Groups: 2}}},
		{"fifo group gap", "Bank.GroupGap", Config{Machine: m, Bank: BankConfig{GroupGap: 1}}},
		{"fifo regulation", "Bank.RegWindow", Config{Machine: m, Bank: BankConfig{RegWindow: 4}}},
		{"fifo warp size", "Bank.WarpSize", Config{Machine: m, Bank: BankConfig{WarpSize: 8}}},
		{"gap without groups", "Bank.GroupGap", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, GroupGap: 1}}},
		{"groups over banks", "Bank.Groups", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, Groups: 99}}},
		{"negative miss", "Bank.MissDelay", Config{Machine: m, Bank: BankConfig{Discipline: DRAM, MissDelay: -1}}},
		{"regulated cache", "Bank.CacheLines", Config{Machine: m, Bank: BankConfig{Discipline: Regulated, CacheLines: 1}}},
		{"negative window", "Bank.RegWindow", Config{Machine: m, Bank: BankConfig{Discipline: Regulated, RegWindow: -1}}},
		{"negative budget", "Bank.RegBudget", Config{Machine: m, Bank: BankConfig{Discipline: Regulated, RegBudget: -1}}},
		{"gpu cache", "Bank.CacheLines", Config{Machine: m, Bank: BankConfig{Discipline: GPUShared, CacheLines: 1}}},
		{"gpu window", "Window", Config{Machine: m, Window: 4, Bank: BankConfig{Discipline: GPUShared}}},
		{"gpu combining", "Combining", Config{Machine: m, Combining: true, Bank: BankConfig{Discipline: GPUShared}}},
		{"gpu sections", "UseSections", Config{Machine: sectioned, UseSections: true, Bank: BankConfig{Discipline: GPUShared}}},
		{"gpu negative warp", "Bank.WarpSize", Config{Machine: m, Bank: BankConfig{Discipline: GPUShared, WarpSize: -1}}},
	} {
		err := tc.cfg.Normalize().Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: %v is not a *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q", tc.name, ce.Field, tc.field)
		}
		// Run reports the same error whichever path the config routes to.
		requireSameRunError(t, tc.name, tc.cfg, core.NewPattern(seqAddrs(8), 2))
	}
}
