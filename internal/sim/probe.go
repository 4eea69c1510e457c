package sim

import "dxbsp/internal/core"

// Probe is the simulator's observability hook. A Probe attached to
// Config.Probe is asked for one RunProbe per simulation run; the engine
// then reports bank/section/window events to that RunProbe as they are
// dispatched.
//
// The contract, enforced by TestProbeDoesNotPerturbResults and the alloc
// regression tests:
//
//   - Attaching a probe NEVER changes simulation results. Hooks receive
//     copies of engine state and have no channel back into the engine.
//   - A nil Config.Probe costs one pointer test per hook site; the
//     probes-off event loop stays allocation-free in steady state.
//   - RunDone fires exactly once per successfully completed run, after
//     the Result is fully assembled. A cancelled run never reaches
//     RunDone, so collectors that commit state there observe only
//     completed simulations (this is what keeps aggregated metrics
//     deterministic under retries and chaos).
//
// Hooks run on the simulating goroutine; a RunProbe needs no internal
// locking against the engine, only against its own readers.
type Probe interface {
	// RunStart is called once per run after config normalization and
	// validation, before the first event dispatches. The returned
	// RunProbe receives every event of that run.
	RunStart(cfg Config, pt core.Pattern) RunProbe
}

// RunProbe receives the per-event observations of one simulation run.
type RunProbe interface {
	// BankArrive reports a request reaching bank at time now. depth is
	// the waiting-line length just before this arrival (excluding the
	// request in service, if any).
	BankArrive(bank int, now float64, depth int)

	// BankStart reports bank beginning a service at now that will hold
	// the bank for service cycles. stall is how long the discipline held
	// the request beyond its dispatch before letting it start — a
	// regulation-window wait under Regulated, 0 elsewhere. rowHit is true
	// when the access was satisfied from the bank's row buffer; queued is
	// true when the request waited in the bank's line rather than
	// starting on arrival.
	BankStart(bank int, now float64, service, stall float64, rowHit, queued bool)

	// SectionArrive reports a request reaching network section sec at
	// now; depth as for BankArrive. Only fires when the section
	// bottleneck is active (Config.UseSections and Machine.Sections > 1).
	SectionArrive(sec int, now float64, depth int)

	// SectionStart reports section sec beginning to forward a request at
	// now; queued as for BankStart.
	SectionStart(sec int, now float64, queued bool)

	// WindowStall reports that processor proc, blocked on its
	// outstanding-request window since from, was unblocked at to.
	// Only fires when Config.Window > 0.
	WindowStall(proc int, from, to float64)

	// RunDone reports the completed run's Result. It is the commit
	// point: it fires only when the run finished (never on
	// cancellation), exactly once, after all other hooks.
	RunDone(res Result)
}
