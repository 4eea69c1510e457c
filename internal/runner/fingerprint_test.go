package runner

import (
	"strings"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/sim"
)

// TestConfigPrefixCompat pins the cache fingerprint against the exact key
// strings minted before the discipline API existed (captured from the
// pre-refactor build). Checkpoint journals persist results under these
// keys, so a drift here silently invalidates every journal on disk: the
// legacy FIFO encoding (bcl/bhd/brs) must survive the Bank sub-config
// refactor byte for byte.
func TestConfigPrefixCompat(t *testing.T) {
	m := core.J90()
	pt := core.NewPattern([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		want string
	}{
		{"default", sim.Config{Machine: m},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=0|sect=false|bcl=0|bhd=0|brs=0|pt=fec0f7d148bcf389:8"},
		{"windowed", sim.Config{Machine: m, Window: 8},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=8|comb=false|nd=0|sect=false|bcl=0|bhd=0|brs=0|pt=fec0f7d148bcf389:8"},
		{"combining", sim.Config{Machine: m, Combining: true},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=true|nd=0|sect=false|bcl=0|bhd=0|brs=0|pt=fec0f7d148bcf389:8"},
		{"cached default", sim.Config{Machine: m, Bank: sim.BankConfig{CacheLines: 4}},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=0|sect=false|bcl=4|bhd=1|brs=5|pt=fec0f7d148bcf389:8"},
		{"cached explicit", sim.Config{Machine: m, Bank: sim.BankConfig{CacheLines: 2, HitDelay: 2, RowWords: 1 << 8}},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=0|sect=false|bcl=2|bhd=2|brs=8|pt=fec0f7d148bcf389:8"},
		{"sections", sim.Config{Machine: m, UseSections: true, NetDelay: 3},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=3|sect=true|bcl=0|bhd=0|brs=0|pt=fec0f7d148bcf389:8"},
	} {
		got, ok := SimKey(tc.cfg, pt)
		if !ok {
			t.Errorf("%s: not keyable", tc.name)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: key drifted from the pre-refactor capture\n got: %s\nwant: %s", tc.name, got, tc.want)
		}
	}
}

// Non-FIFO disciplines extend the key after the legacy block: every knob
// must be covered (two configs differing in any knob get distinct keys),
// and the GPU bank map must be keyable.
func TestConfigPrefixDisciplines(t *testing.T) {
	m := core.J90()
	pt := core.NewPattern([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	configs := []sim.Config{
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM}},
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM, CacheLines: 2}},
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM, MissDelay: 20}},
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM, Groups: 8, GroupGap: 2}},
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.Regulated}},
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.Regulated, RegWindow: 100, RegBudget: 3}},
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.GPUShared}},
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.GPUShared, WarpSize: 16}},
	}
	seen := make(map[string]int)
	for i, cfg := range configs {
		k, ok := SimKey(cfg, pt)
		if !ok {
			t.Fatalf("config %d: not keyable", i)
		}
		if !strings.Contains(k, "disc="+cfg.Bank.Discipline.String()+"|") {
			t.Errorf("config %d: key %q does not name its discipline", i, k)
		}
		if j, dup := seen[k]; dup {
			t.Errorf("configs %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}
}
