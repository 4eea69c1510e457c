package sim

import (
	"context"
	"fmt"

	"dxbsp/internal/core"
)

// Engine is the event-driven simulator: the wheel-scheduled event loop
// every configuration can run on. The package-level Run and RunContext
// pick the path per config — lockstep-eligible configs take the
// lockstep walk, and only probes, FIFO row caches and windowed or
// non-FIFO sections come here — while Engine.Run always runs the event
// loop, so it stays the independent oracle the lockstep walk is tested
// against.
//
// Each Run re-arms the same instance while retaining every internal
// allocation — the calendar-queue buckets, the per-bank and per-section
// rings, the processor and bank bookkeeping slices — so a sweep that
// runs thousands of same-shaped simulations through one Engine allocates
// only on the first (TestEngineReuseZeroAllocs pins the second run at
// zero).
//
// An Engine is single-run at a time and not safe for concurrent use;
// pools (the runner keeps one per worker via sync.Pool) must hand an
// Engine to one goroutine at a time.
type Engine struct {
	eng engine

	// defMaps caches the boxed default BankMaps so repeated runs of
	// BankMap-less configs do not re-box them every run.
	defMaps defaultMaps
}

// NewEngine returns an empty Engine. The first Run sizes its storage to
// the configuration; later runs reuse it whenever the shape still fits.
func NewEngine() *Engine { return &Engine{} }

// Run validates cfg and pt, re-arms the engine's retained storage and
// simulates one superstep of pt under cfg on the event loop, with the
// same cancellation contract as RunContext. Results are byte-identical
// to Run/RunContext for the same inputs regardless of what the engine
// simulated before, and so are the errors.
func (E *Engine) Run(ctx context.Context, cfg Config, pt core.Pattern) (Result, error) {
	cfg, err := prepare(cfg, pt, &E.defMaps)
	if err != nil {
		return Result{}, err
	}
	E.eng.reset(cfg, pt)
	return E.eng.simulate(ctx)
}

// defaultMaps caches the boxed default BankMaps (interleave, or the GPU
// word-interleaved map under the GPUShared discipline) for one engine:
// boxing a map of 256 or more banks into the interface allocates, so a
// sweep alternating bank counts or disciplines would pay an allocation
// per run. It keeps the last eight maps it boxed, enough for the F6
// expansion grid's eight bank counts. It holds no run state, so it
// survives release and pins nothing.
type defaultMaps struct {
	m    [8]core.BankMap
	next int // round-robin replacement cursor
}

// get returns the cached default map over banks, boxing it on a miss.
func (dm *defaultMaps) get(banks int, gpu bool) core.BankMap {
	for _, m := range dm.m {
		if _, isGPU := m.(core.GPUSharedMap); m != nil && isGPU == gpu && m.NumBanks() == banks {
			return m
		}
	}
	var m core.BankMap
	if gpu {
		m = core.GPUSharedMap{Banks: banks}
	} else {
		m = core.InterleaveMap{Banks: banks}
	}
	dm.m[dm.next] = m
	dm.next = (dm.next + 1) % len(dm.m)
	return m
}

// prepare is the validation every engine performs before it simulates:
// it fills in the default bank map from dm, normalizes cfg, and checks
// the machine, the knobs and pt's processor count. The errors are the
// ones Run returns.
func prepare(cfg Config, pt core.Pattern, dm *defaultMaps) (Config, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return Config{}, err
	}
	if cfg.BankMap == nil {
		cfg.BankMap = dm.get(cfg.Machine.Banks, cfg.Bank.Discipline == GPUShared)
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	if pt.Procs() > cfg.Machine.Procs {
		return Config{}, fmt.Errorf("sim: pattern has %d processor streams but machine has %d processors",
			pt.Procs(), cfg.Machine.Procs)
	}
	return cfg, nil
}

// release drops every reference the engine borrowed from its last run's
// inputs — the per-processor address slices, the probe, the bank map —
// so a pooled engine pins only its own arenas while parked, never the
// caller's pattern. The arenas themselves (wheel buckets, rings,
// bookkeeping slices) are deliberately kept; they are the point of
// pooling.
func (e *engine) release() {
	for i := range e.procs {
		e.procs[i].addrs = nil
	}
	e.rp = nil
	e.bm = nil
	e.cfg = Config{}
}

// reset re-arms e for one run of pt under the normalized, validated cfg.
// Every slice is reused when its capacity still fits the new shape and
// reinitialized over its full new length (not just the previously active
// region), so state from an earlier — possibly larger, possibly
// cancelled — run can never leak into this one.
func (e *engine) reset(cfg Config, pt core.Pattern) {
	e.cfg = cfg
	e.bm = cfg.BankMap
	e.bmKind, e.bmArg = resolveMap(cfg.BankMap)
	e.seq = 0
	e.lastDone = 0
	e.res = Result{}
	e.rp = nil
	if cfg.Probe != nil {
		e.rp = cfg.Probe.RunStart(cfg, pt)
	}

	// Resolve the discipline dispatch once; the event loop switches on
	// the tag and never takes an interface call per event. GPUShared is
	// the one discipline that needs per-request completions even in the
	// open loop (the warp barrier is driven from complete), so it opts
	// out of the collapsed fast path.
	b := cfg.Bank
	e.disc = b.Discipline
	e.openLoop = cfg.Window == 0 && b.Discipline != GPUShared
	e.warpSize = b.WarpSize

	// Row buffers (FIFO's HS93 ablation and the DRAM discipline). Row
	// storage is retained even across runs that have row buffers off
	// (rowsOn gates its use), so alternating configurations do not churn.
	e.rowsOn = b.CacheLines > 0
	e.rowLines = b.CacheLines
	e.rowShift = rowShiftOf(b.RowWords)
	if e.rowsOn {
		if cap(e.bankRows) >= cfg.Machine.Banks {
			e.bankRows = e.bankRows[:cfg.Machine.Banks]
			for i := range e.bankRows {
				e.bankRows[i] = e.bankRows[i][:0]
			}
		} else {
			e.bankRows = make([][]uint64, cfg.Machine.Banks)
		}
	}

	// Regulated window accounting.
	if b.Discipline == Regulated {
		e.regWindow = b.RegWindow
		e.regBudget = int32(b.RegBudget)
		e.regEpoch = growZero(e.regEpoch, cfg.Machine.Banks)
		e.regUsed = growZero(e.regUsed, cfg.Machine.Banks)
	}
	e.procs = growZero(e.procs, pt.Procs())

	nSections := 1
	if cfg.UseSections && cfg.Machine.Sections > 1 {
		nSections = cfg.Machine.Sections
	}
	e.banksPerSection = (cfg.Machine.Banks + nSections - 1) / nSections

	// Server rings. On reuse each server keeps whatever ring it grew to
	// (server.grow relinearizes into head=0, so a cleared ring is valid
	// storage for the next run); on first build one slab supplies every
	// server's initial ring, so a run performs O(1) queue allocations
	// rather than one per bank that ever queues.
	if cap(e.banks) >= cfg.Machine.Banks && cap(e.sections) >= nSections {
		e.banks = e.banks[:cfg.Machine.Banks]
		e.sections = e.sections[:nSections]
		for i := range e.banks {
			s := &e.banks[i]
			s.busy, s.maxQ, s.head, s.n = false, 0, 0, 0
		}
		for i := range e.sections {
			s := &e.sections[i]
			s.busy, s.maxQ, s.head, s.n = false, 0, 0, 0
		}
	} else {
		e.banks = make([]server, cfg.Machine.Banks)
		e.sections = make([]server, nSections)
		const initialRing = 8 // power of two, as the ring requires
		slab := make([]request, (cfg.Machine.Banks+nSections)*initialRing)
		for i := range e.banks {
			e.banks[i].buf = slab[:initialRing:initialRing]
			slab = slab[initialRing:]
		}
		for i := range e.sections {
			e.sections[i].buf = slab[:initialRing:initialRing]
			slab = slab[initialRing:]
		}
	}

	e.bankServe = growZero(e.bankServe, cfg.Machine.Banks)

	e.events.reset(cfg, cfg.Machine.Procs)

	total := 0
	for i, addrs := range pt.PerProc {
		e.procs[i].addrs = addrs
		total += len(addrs)
		if len(addrs) > 0 {
			e.events.push(event{time: 0, seq: e.nextSeq(), kind: evInject, proc: int32(i)})
		}
	}
	e.res.Requests = total
}
