// Package sim is a deterministic, cycle-level, discrete-event simulator of
// the memory system of a high-bandwidth shared-memory multiprocessor — the
// stand-in for the Cray C90 and J90 on which the paper's experiments ran.
//
// # The simulated machine
//
//   - p processors, each issuing the requests of a bulk (vectorized)
//     scatter/gather in order, one injection every g cycles;
//   - a network that delivers a request to its memory bank after a fixed
//     transit delay, optionally passing through one of a small number of
//     network sections, each of which can accept at most one request every
//     SectionGap cycles (this finite section bandwidth reproduces the
//     paper's "version (c)" congestion anomaly);
//   - x*p memory banks, each a FIFO server that is busy for a service time
//     per request (the paper's machines do not combine requests to the
//     same address, and neither does the simulator);
//   - responses that return to the issuing processor after the same transit
//     delay, closing the loop when a per-processor window of outstanding
//     requests is configured.
//
// The simulator is event-driven with deterministic tie-breaking, so a given
// configuration and pattern always produce the identical cycle count.
//
// # Bank service disciplines
//
// How a bank turns an arrival into a service time and a completion is a
// pluggable discipline, selected by Config.Bank (see BankConfig):
//
//   - FIFO (the zero value): the paper's bank — every access holds the bank
//     for d cycles, in arrival order. With CacheLines > 0 it becomes the
//     Hsu–Smith cached-DRAM ablation (row-buffer hits served in HitDelay).
//   - DRAM: an explicit row-buffer model after Kim et al. — each bank
//     keeps one open row; open-row hits cost HitDelay, row conflicts cost
//     MissDelay.
//   - Regulated: each bank may serve at most RegBudget requests per
//     RegWindow cycles; overdraft defers service to the next window. This
//     models bandwidth regulation / QoS throttling at the controller.
//   - GPUShared: a GPU shared-memory model — 32-lane warps issue together
//     over word-interleaved banks (bank = addr/4 mod banks), and lanes that
//     conflict on a bank serialize as warp replays.
//
// Dispatch is resolved once per run and the event loop switches on
// a discipline tag, so adding disciplines costs the FIFO hot path nothing;
// TestEngineReuseZeroAllocs and the SimScatter64K benchmark gate pin this.
// RunReference implements the same machine independently as a per-clock
// oracle — every discipline, windows, sections and dyadic fractional
// delays — and differential tests and fuzzing hold both engines to its
// full Result.
//
// # Entry points
//
// Run simulates one superstep; it is RunContext without cooperative
// cancellation. RunContext picks the path by one rule,
// BatchEligible(cfg): eligible configs — open- or closed-loop FIFO,
// Regulated, DRAM, GPUShared warps and open-loop FIFO sections — run on
// a pooled lockstep walk, every other config (probes, FIFO row caches,
// windowed or non-FIFO sections) on a pooled event Engine. Both paths
// are byte-identical to the event engine and allocate nothing in the
// steady state.
//
// Engine is the event engine itself, whatever the config. Callers that
// manage their own reuse — a benchmark harness, a worker pool with
// per-worker engines — or that need the event loop whatever the config
// can hold one from NewEngine.
package sim
