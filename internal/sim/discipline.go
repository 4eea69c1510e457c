package sim

import (
	"fmt"
	"math"
	"math/bits"

	"dxbsp/internal/core"
)

// Discipline selects the bank service discipline: the rule deciding how
// long a request occupies its bank and when a deliverable request may
// start service. The paper's machines are plain FIFO servers busy for d
// cycles per request; the other disciplines open the same (p, x, d, g, L)
// skeleton to modern-memory scenarios.
//
// Dispatch is resolved once per run (engine.reset) into a tag the event loop
// switches on — never an interface call per event — so every discipline
// inherits the engine's allocation-free steady state (see DESIGN.md §12).
type Discipline uint8

const (
	// FIFO is the paper's bank model: each service occupies the bank for
	// d cycles (or Bank.HitDelay on a row-buffer hit when Bank.CacheLines
	// enables the HS93 cached-DRAM ablation). The zero value, so legacy
	// configs run unchanged.
	FIFO Discipline = iota

	// DRAM is a row-buffer DRAM model after Kim et al.: each bank keeps
	// Bank.CacheLines open rows; a hit is serviced in Bank.HitDelay
	// cycles, a row conflict in Bank.MissDelay. Banks may additionally be
	// partitioned into Bank.Groups bank groups whose shared internal bus
	// admits one service start per Bank.GroupGap cycles.
	DRAM

	// Regulated is a bandwidth-regulated bank after Sullivan et al.: each
	// bank may start at most Bank.RegBudget services per Bank.RegWindow
	// cycles; a request arriving at an exhausted bank is deferred to the
	// next regulation window.
	Regulated

	// GPUShared is a GPU shared-memory model (SNIPPETS.md puzzle 32):
	// word-interleaved banks with bank = (addr/4) % banks, warp-synchronous
	// issue — each processor injects Bank.WarpSize consecutive requests as
	// one warp and issues the next warp only after every lane of the
	// current one has completed — and bank conflicts serialized as warp
	// replays. Requires the open loop (Window == 0) and no Combining.
	GPUShared
)

// Disciplines lists every discipline in tag order.
func Disciplines() []Discipline {
	return []Discipline{FIFO, DRAM, Regulated, GPUShared}
}

// String returns the canonical lower-case name used by CLI flags and the
// runner's cache fingerprint.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case DRAM:
		return "dram"
	case Regulated:
		return "regulated"
	case GPUShared:
		return "gpu"
	default:
		return fmt.Sprintf("discipline(%d)", uint8(d))
	}
}

// ParseDiscipline maps a CLI name to its Discipline. It accepts the
// canonical String names plus the common aliases "gpushared" and
// "gpu-shared".
func ParseDiscipline(s string) (Discipline, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "dram":
		return DRAM, nil
	case "regulated":
		return Regulated, nil
	case "gpu", "gpushared", "gpu-shared":
		return GPUShared, nil
	default:
		return FIFO, fmt.Errorf("sim: unknown discipline %q (want fifo, dram, regulated or gpu)", s)
	}
}

// BankConfig parameterizes the bank service discipline. Every field is a
// scalar so Config stays comparable; a zero field means "unset — apply
// the discipline's documented default" (Normalize fills them in), which
// is what makes a genuine 1-word row representable: RowWords: 1 is an
// explicit setting, RowWords: 0 the request for the default.
type BankConfig struct {
	Discipline Discipline

	// CacheLines is the number of rows each bank keeps open (LRU).
	// Under FIFO, 0 disables row buffers entirely (the paper's machines)
	// and > 0 enables the HS93 cached-DRAM ablation. Under DRAM it
	// defaults to 1 (a single open row per bank).
	CacheLines int

	// HitDelay is the service time of a row-buffer hit (FIFO with
	// CacheLines > 0, and DRAM). Defaults to 1.
	HitDelay float64

	// RowWords is the row size in words: addresses sharing
	// addr / RowWords are in the same row. Must be a power of two.
	// 0 means unset and defaults to 32; RowWords: 1 is a genuine
	// one-word row.
	RowWords int

	// MissDelay is the DRAM row-conflict service time. 0 means unset and
	// defaults to Machine.D.
	MissDelay float64

	// Groups partitions the banks into that many bank groups (DRAM only);
	// 0 disables grouping. Banks are grouped contiguously,
	// ceil(Banks/Groups) per group.
	Groups int

	// GroupGap is the minimum spacing between service starts within one
	// bank group (DRAM only; meaningful when Groups > 0).
	GroupGap float64

	// RegWindow is the regulation window length in cycles (Regulated
	// only). 0 means unset and defaults to 4*Machine.D.
	RegWindow float64

	// RegBudget is the number of service starts each bank may make per
	// regulation window (Regulated only). 0 means unset and defaults
	// to 2.
	RegBudget int

	// WarpSize is the number of consecutive requests a processor issues
	// as one warp (GPUShared only). 0 means unset and defaults to 32.
	WarpSize int
}

// normalize applies the per-discipline defaults. Idempotent: normalizing
// a normalized BankConfig is the identity.
func (b BankConfig) normalize(m core.Machine) BankConfig {
	switch b.Discipline {
	case FIFO:
		if b.CacheLines > 0 {
			if b.HitDelay == 0 {
				b.HitDelay = 1
			}
			if b.RowWords == 0 {
				b.RowWords = 32
			}
		}
	case DRAM:
		if b.CacheLines == 0 {
			b.CacheLines = 1
		}
		if b.HitDelay == 0 {
			b.HitDelay = 1
		}
		if b.RowWords == 0 {
			b.RowWords = 32
		}
		if b.MissDelay == 0 {
			b.MissDelay = m.D
		}
	case Regulated:
		if b.RegWindow == 0 {
			b.RegWindow = 4 * m.D
		}
		if b.RegBudget == 0 {
			b.RegBudget = 2
		}
	case GPUShared:
		if b.WarpSize == 0 {
			b.WarpSize = 32
		}
	}
	return b
}

// validate checks the (normalized) bank sub-config against the rest of
// the configuration. Knobs set on a discipline that does not read them
// are rejected rather than silently ignored, so a typo'd config fails
// loudly instead of simulating something else.
func (c Config) validateBank() error {
	b := c.Bank
	if b.Discipline > GPUShared {
		return &ConfigError{Field: "Bank.Discipline", Reason: fmt.Sprintf("unknown discipline tag %d", b.Discipline)}
	}
	if b.CacheLines < 0 {
		return &ConfigError{Field: "Bank.CacheLines", Reason: fmt.Sprintf("must be >= 0, got %d", b.CacheLines)}
	}
	if !finiteNonNeg(b.HitDelay) {
		return &ConfigError{Field: "Bank.HitDelay", Reason: fmt.Sprintf("must be finite and >= 0, got %g", b.HitDelay)}
	}
	if b.RowWords < 0 || (b.RowWords > 0 && b.RowWords&(b.RowWords-1) != 0) {
		return &ConfigError{Field: "Bank.RowWords", Reason: fmt.Sprintf("must be 0 (default) or a power of two, got %d", b.RowWords)}
	}
	if b.Discipline != DRAM {
		switch {
		case b.MissDelay != 0:
			return &ConfigError{Field: "Bank.MissDelay", Reason: "only meaningful for the DRAM discipline"}
		case b.Groups != 0:
			return &ConfigError{Field: "Bank.Groups", Reason: "only meaningful for the DRAM discipline"}
		case b.GroupGap != 0:
			return &ConfigError{Field: "Bank.GroupGap", Reason: "only meaningful for the DRAM discipline"}
		}
	}
	if b.Discipline != Regulated && (b.RegWindow != 0 || b.RegBudget != 0) {
		return &ConfigError{Field: "Bank.RegWindow", Reason: "regulation knobs are only meaningful for the Regulated discipline"}
	}
	if b.Discipline != GPUShared && b.WarpSize != 0 {
		return &ConfigError{Field: "Bank.WarpSize", Reason: "only meaningful for the GPUShared discipline"}
	}
	switch b.Discipline {
	case DRAM:
		switch {
		case !finiteNonNeg(b.MissDelay):
			return &ConfigError{Field: "Bank.MissDelay", Reason: fmt.Sprintf("must be finite and >= 0, got %g", b.MissDelay)}
		case b.Groups < 0 || b.Groups > c.Machine.Banks:
			return &ConfigError{Field: "Bank.Groups", Reason: fmt.Sprintf("must be in [0, Banks=%d], got %d", c.Machine.Banks, b.Groups)}
		case !finiteNonNeg(b.GroupGap):
			return &ConfigError{Field: "Bank.GroupGap", Reason: fmt.Sprintf("must be finite and >= 0, got %g", b.GroupGap)}
		case b.GroupGap > 0 && b.Groups == 0:
			return &ConfigError{Field: "Bank.GroupGap", Reason: "requires Bank.Groups > 0"}
		}
	case Regulated:
		switch {
		case b.CacheLines != 0:
			return &ConfigError{Field: "Bank.CacheLines", Reason: "row buffers are not supported under the Regulated discipline"}
		case !finiteNonNeg(b.RegWindow) || b.RegWindow == 0:
			return &ConfigError{Field: "Bank.RegWindow", Reason: fmt.Sprintf("must be finite and > 0, got %g", b.RegWindow)}
		case b.RegBudget <= 0:
			return &ConfigError{Field: "Bank.RegBudget", Reason: fmt.Sprintf("must be > 0, got %d", b.RegBudget)}
		}
	case GPUShared:
		switch {
		case b.CacheLines != 0:
			return &ConfigError{Field: "Bank.CacheLines", Reason: "row buffers are not supported under the GPUShared discipline"}
		case b.WarpSize <= 0:
			return &ConfigError{Field: "Bank.WarpSize", Reason: fmt.Sprintf("must be > 0, got %d", b.WarpSize)}
		case c.Window != 0:
			return &ConfigError{Field: "Window", Reason: "GPUShared issue is warp-synchronous; Window must be 0"}
		case c.Combining:
			return &ConfigError{Field: "Combining", Reason: "not supported under the GPUShared discipline"}
		case c.UseSections && c.Machine.Sections > 1:
			return &ConfigError{Field: "UseSections", Reason: "network sections are not modeled under the GPUShared discipline"}
		}
	}
	return nil
}

// finiteNonNeg reports whether x is a usable delay: not NaN, not
// infinite, not negative.
func finiteNonNeg(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}

// rowShiftOf returns log2 of the (power-of-two, validated) row size, the
// shift that maps an address to its row tag.
func rowShiftOf(rowWords int) uint {
	if rowWords <= 1 {
		return 0
	}
	return uint(bits.TrailingZeros(uint(rowWords)))
}
