package runner

import (
	"strings"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/sim"
)

// TestConfigPrefixCompat pins the cache fingerprint against exact key
// strings captured from earlier builds: the FIFO rows before the
// discipline API existed, the non-FIFO rows before the Config knobs no
// experiment set were deleted. Checkpoint journals persist results under
// these keys, so a drift here silently invalidates every journal on
// disk: the legacy FIFO encoding (bcl/bhd/brs), the constant comb=false
// and the bank sub-config's Groups:0 GroupGap:0 must survive byte for
// byte.
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
		{"cached default", sim.Config{Machine: m, Bank: sim.BankConfig{CacheLines: 4}},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=0|sect=false|bcl=4|bhd=1|brs=5|pt=fec0f7d148bcf389:8"},
		{"cached explicit", sim.Config{Machine: m, Bank: sim.BankConfig{CacheLines: 2, HitDelay: 2, RowWords: 1 << 8}},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=0|sect=false|bcl=2|bhd=2|brs=8|pt=fec0f7d148bcf389:8"},
		{"sections", sim.Config{Machine: m, UseSections: true, NetDelay: 3},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=3|sect=true|bcl=0|bhd=0|brs=0|pt=fec0f7d148bcf389:8"},
		// Non-FIFO keys, captured while BankConfig still had Groups and
		// GroupGap and the key printed it with %+v.
		{"dram", sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM, RowWords: 4096}},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=0|sect=false|bcl=1|bhd=1|brs=12|disc=dram|bank={Discipline:dram CacheLines:1 HitDelay:1 RowWords:4096 MissDelay:14 Groups:0 GroupGap:0 RegWindow:0 RegBudget:0 WarpSize:0}|pt=fec0f7d148bcf389:8"},
		{"regulated", sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.Regulated, RegBudget: 3}},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=interleave:512|w=0|comb=false|nd=0|sect=false|bcl=0|bhd=0|brs=0|disc=regulated|bank={Discipline:regulated CacheLines:0 HitDelay:0 RowWords:0 MissDelay:0 Groups:0 GroupGap:0 RegWindow:56 RegBudget:3 WarpSize:0}|pt=fec0f7d148bcf389:8"},
		{"gpu", sim.Config{Machine: m, Bank: sim.BankConfig{Discipline: sim.GPUShared}},
			"m=J90{p=8 b=512 x=64.0 d=14 g=1 L=0}|bm=gpushared:512|w=0|comb=false|nd=0|sect=false|bcl=0|bhd=0|brs=0|disc=gpu|bank={Discipline:gpu CacheLines:0 HitDelay:0 RowWords:0 MissDelay:0 Groups:0 GroupGap:0 RegWindow:0 RegBudget:0 WarpSize:32}|pt=fec0f7d148bcf389:8"},
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
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM, MissDelay: 20}},
		{Machine: m, Bank: sim.BankConfig{Discipline: sim.DRAM, HitDelay: 2, RowWords: 64}},
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

// TestPatternDigestPinned pins patternDigest on a ragged pattern: an
// empty stream, streams of different lengths, and addresses that fill
// all eight bytes. Cache keys and checkpoint journals carry the digest,
// so a change to its byte framing would orphan every journal on disk.
func TestPatternDigestPinned(t *testing.T) {
	pt := core.Pattern{PerProc: [][]uint64{
		{1, 0xffffffffffffffff, 1 << 40},
		{},
		{0x0123456789abcdef},
		{7, 7, 0x8000000000000000, 42, 0xdeadbeef},
	}}
	const want = "a20dc8da316abdf0:9"
	if got := patternDigest(pt); got != want {
		t.Errorf("patternDigest = %s, want %s", got, want)
	}
}
