package sim

import (
	"fmt"

	"dxbsp/internal/core"
)

// Config describes one simulation run.
type Config struct {
	Machine core.Machine
	BankMap core.BankMap // defaults to interleave over Machine.Banks

	// Window is the maximum number of outstanding requests per processor.
	// 0 means unlimited (open-loop vector pipeline, the default: latency
	// is hidden by vectorization, as on the Cray).
	Window int

	// NetDelay is the one-way transit time between a processor and a bank.
	// It defaults to Machine.L/2 and affects only latency, not bandwidth.
	NetDelay float64

	// UseSections enables the network-section bottleneck when
	// Machine.Sections > 1.
	UseSections bool

	// Bank selects and parameterizes the bank service discipline; the
	// zero value is the paper's FIFO bank. See BankConfig.
	Bank BankConfig

	// Probe, when non-nil, receives per-event observations of the run
	// (see Probe). It is results-neutral by contract — attaching a probe
	// never changes Result — and it is deliberately excluded from the
	// runner's cache identity, which fingerprints the behavioral knobs
	// field by field.
	Probe Probe
}

// ConfigError reports an invalid simulation configuration. It names the
// offending Config field so callers can distinguish misconfiguration from
// runtime failures (use errors.As).
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid Config.%s: %s", e.Field, e.Reason)
}

// Normalize returns a copy of c with the documented defaults applied in one
// place: a BankMap over Machine.Banks (interleaved, or GPU word-interleaved
// under the GPUShared discipline), NetDelay = Machine.L/2, and the
// per-discipline Bank defaults (see BankConfig).
// Run normalizes internally; callers that fingerprint or compare configs
// (the runner's memo cache) call Normalize so that a default-valued config
// and an explicitly-defaulted one are identical.
func (c Config) Normalize() Config {
	if c.BankMap == nil {
		if c.Bank.Discipline == GPUShared {
			c.BankMap = core.GPUSharedMap{Banks: c.Machine.Banks}
		} else {
			c.BankMap = core.InterleaveMap{Banks: c.Machine.Banks}
		}
	}
	if c.NetDelay == 0 {
		c.NetDelay = c.Machine.L / 2
	}
	c.Bank = c.Bank.normalize(c.Machine)
	return c
}

// Validate rejects configurations Run cannot execute faithfully. It checks
// the (normalized) simulator knobs; the machine itself is checked by
// core.Machine.Validate. Invalid knobs return a *ConfigError rather than
// being silently clamped.
func (c Config) Validate() error {
	switch {
	case c.Window < 0:
		return &ConfigError{Field: "Window", Reason: fmt.Sprintf("must be >= 0 (0 = open loop), got %d", c.Window)}
	case !finiteNonNeg(c.NetDelay):
		return &ConfigError{Field: "NetDelay", Reason: fmt.Sprintf("must be finite and >= 0, got %g", c.NetDelay)}
	}
	if err := c.validateBank(); err != nil {
		return err
	}
	if c.BankMap != nil && c.BankMap.NumBanks() != c.Machine.Banks {
		return &ConfigError{Field: "BankMap", Reason: fmt.Sprintf("covers %d banks, machine has %d",
			c.BankMap.NumBanks(), c.Machine.Banks)}
	}
	return nil
}

// Result reports the outcome of simulating one superstep.
type Result struct {
	// Cycles is the completion time of the bulk operation: the cycle at
	// which the last response arrives back at its processor.
	Cycles float64
	// Requests is the number of requests simulated.
	Requests int
	// BankServices is the number of bank service occupations; every
	// request is served once, so it equals Requests.
	BankServices int
	// MaxBankServed is the largest number of requests handled by one bank.
	MaxBankServed int
	// MaxBankQueue is the high-water mark of any bank's queue length.
	MaxBankQueue int
	// MaxSectionQueue is the high-water mark of any section queue.
	MaxSectionQueue int
	// BankBusy is the total busy time summed over banks.
	BankBusy float64
	// RowHits counts bank services satisfied from the row buffer (always 0
	// unless row buffers are on: FIFO with Bank.CacheLines > 0, or DRAM).
	RowHits int
	// RowConflicts counts DRAM services that missed every open row and
	// paid Bank.MissDelay (always 0 outside the DRAM discipline).
	RowConflicts int
	// ThrottleStalls counts bank services the Regulated discipline
	// deferred to the next regulation window; ThrottleStallCycles is the
	// total time those services waited (always 0 outside Regulated).
	ThrottleStalls      int
	ThrottleStallCycles float64
	// WarpReplays counts GPUShared services that had to replay — wait in
	// a bank's line behind a conflicting lane of the same or an earlier
	// warp — rather than start on arrival (always 0 outside GPUShared).
	WarpReplays int
	// Analytic marks a result produced by the closed-form surrogate
	// (internal/surrogate) instead of event simulation. The simulator
	// never sets it; renderers and metrics use it to tag mixed
	// sim/surrogate sweeps.
	Analytic bool
}
