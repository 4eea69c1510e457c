package sim

import (
	"context"
	"fmt"
	"sync"

	"dxbsp/internal/core"
)

type request struct {
	proc int
	seq  int // global issue sequence for deterministic ties
	addr uint64
	bank int
}

type eventKind uint8

const (
	evInject        eventKind = iota // processor attempts next injection
	evSectionArrive                  // request arrives at its network section
	evSectionDone                    // section finished forwarding a request
	evBankArrive                     // request arrives at its bank
	evBankDone                       // bank finished a service
	evComplete                       // response arrives back at processor
)

// event is one scheduled state transition. It is a flat 40-byte value —
// the request fields are inlined rather than nested, and the processor,
// bank and section indices are int32 (they are bounded by the machine
// shape), so the scheduler moves and compares narrow values with no
// indirection. Which fields are meaningful depends on kind; see dispatch.
type event struct {
	time float64
	seq  int    // tie-break: FIFO by issue order (unique per (kind, seq))
	addr uint64 // request address (routing events)
	proc int32  // issuing processor (evInject, evComplete, routing events)
	bank int32  // destination bank (routing events)
	idx  int32  // section or bank index for *Done events
	kind eventKind
}

// req reconstructs the in-flight request carried by a routing event.
func (ev *event) req() request {
	return request{proc: int(ev.proc), seq: ev.seq, addr: ev.addr, bank: int(ev.bank)}
}

type procState struct {
	addrs       []uint64
	next        int
	outstanding int
	blocked     bool
	blockedAt   float64 // when the window block began (valid while blocked)
	nextIssueAt float64
	completed   int
}

// engine holds all mutable simulation state. It is built once and re-armed
// by reset: the calendar-queue buckets, the per-server rings and the
// processor/bank bookkeeping slices are all retained across runs, so a
// reused engine performs zero steady-state allocations per run
// (TestEngineReuseZeroAllocs pins this; TestEventLoopSteadyStateAllocs
// pins that the event loop itself never allocates per event).
type engine struct {
	cfg Config
	bm  core.BankMap
	// bmKind/bmArg are the bank map resolved to an inline dispatch tag
	// (resolveMap) at reset: the two interleave families compute the bank
	// with one mask or modulo instead of an interface call per request —
	// which the GPU warp loop issues WarpSize at a time.
	bmKind   mapKind
	bmArg    uint64
	events   wheel
	procs    []procState
	sections []server
	banks    []server
	seq      int

	// openLoop marks the Window == 0 fast path: no processor can ever
	// block, so per-request evComplete events are collapsed into direct
	// lastDone bookkeeping in respond.
	openLoop        bool
	banksPerSection int

	// rp is the per-run probe, nil for the (default) unobserved run.
	// Every hook site is nil-checked, so probes-off costs one predictable
	// branch per site and the steady state stays allocation-free.
	rp RunProbe

	res       Result
	bankServe []int
	// rowsOn gates the row-buffer paths (FIFO+CacheLines and DRAM);
	// bankRows storage is retained across resets even when a run has row
	// buffers off, so alternating configurations on a reused engine do
	// not reallocate. rowShift and rowLines are resolved from the Bank
	// sub-config at reset so rowAccess does no per-event config decoding.
	rowsOn   bool
	rowShift uint
	rowLines int
	bankRows [][]uint64 // per-bank LRU row buffer
	lastDone float64

	// disc is the service discipline tag, resolved once per reset; the
	// hot path switches on it and never makes an interface call per
	// event (DESIGN.md §12). The per-discipline state below is retained
	// across resets like every other arena.
	disc Discipline

	// Regulated: per-bank window accounting. regEpoch[b] is the index of
	// the regulation window bank b last charged, regUsed[b] the services
	// started in it.
	regWindow float64
	regBudget int32
	regEpoch  []int64
	regUsed   []int32

	// GPUShared: lanes per warp.
	warpSize int
}

// sectionOf maps a bank to its network section.
func (e *engine) sectionOf(bank int) int { return bank / e.banksPerSection }

// cancelCheckEvents is how many simulated events pass between context
// polls in RunContext. Power of two; small enough that even quick-scale
// simulations (tens of thousands of events) observe cancellation
// mid-flight, large enough that the poll is free on the hot path.
const cancelCheckEvents = 1024

// Run simulates one superstep of pattern pt under cfg and returns the
// result. Invalid configuration returns an error (a *ConfigError or a
// *core.MachineError). Run is RunContext without cancellation.
func Run(cfg Config, pt core.Pattern) (Result, error) {
	return RunContext(context.Background(), cfg, pt)
}

// enginePool recycles event engines across RunContext calls so
// back-to-back runs — a sweep's workers all funnel through here — reuse
// the retained wheel buckets, rings and bookkeeping slices instead of
// rebuilding them per run. Engines are parked released (no borrowed
// references; see engine.release), so the pool never pins a caller's
// pattern or probe.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// RunContext is Run with cooperative cancellation: the event loop polls
// ctx every cancelCheckEvents events, the lockstep walk before its first
// round and then every batchPollRequests requests, so timeouts, retries
// and chaos cancellation interrupt a simulation mid-flight instead of
// waiting for it to finish. Polling reads no simulation state, so an
// uncancelled RunContext produces cycle counts byte-identical to Run.
//
// RunContext picks the path by one rule, BatchEligible(cfg): an
// eligible config — open- or closed-loop FIFO, Regulated, DRAM,
// GPUShared, or open-loop FIFO behind network sections — runs on a
// pooled lockstep walk (a windowed one finishes in the O(log p) replay
// at its first stall; warps replay on the same tree), and every other
// config — probes, windowed or non-FIFO sections, FIFO row caches —
// runs on a pooled event Engine. Both paths return results
// byte-identical to Engine.Run, with the same configuration errors, and
// both re-arm retained state in place, so the steady-state allocation
// cost of a run is ~0 (TestProbesOffAllocBudget pins it).
func RunContext(ctx context.Context, cfg Config, pt core.Pattern) (Result, error) {
	if BatchEligible(cfg) {
		b := lockstepPool.Get().(*lockstep)
		res, err := b.run(ctx, cfg, pt)
		lockstepPool.Put(b)
		return res, err
	}
	e := enginePool.Get().(*Engine)
	res, err := e.Run(ctx, cfg, pt)
	e.eng.release()
	enginePool.Put(e)
	return res, err
}

// simulate drains the event queue and assembles the result.
func (e *engine) simulate(ctx context.Context) (Result, error) {
	processed := 0
	for e.events.len() > 0 {
		processed++
		if processed%cancelCheckEvents == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: cancelled after %d events: %w", processed, err)
			}
		}
		e.dispatch(e.events.pop())
	}

	e.res.Cycles = e.lastDone
	for i, c := range e.bankServe {
		if c > e.res.MaxBankServed {
			e.res.MaxBankServed = c
		}
		if e.banks[i].maxQ > e.res.MaxBankQueue {
			e.res.MaxBankQueue = e.banks[i].maxQ
		}
	}
	for i := range e.sections {
		if e.sections[i].maxQ > e.res.MaxSectionQueue {
			e.res.MaxSectionQueue = e.sections[i].maxQ
		}
	}
	if e.rp != nil {
		e.rp.RunDone(e.res)
	}
	return e.res, nil
}

func (e *engine) nextSeq() int {
	e.seq++
	return e.seq
}

func (e *engine) dispatch(ev event) {
	switch ev.kind {
	case evInject:
		e.inject(int(ev.proc), ev.time)
	case evSectionArrive:
		req := ev.req()
		e.arriveSection(e.sectionOf(req.bank), req, ev.time)
	case evSectionDone:
		e.sectionDone(int(ev.idx), ev.req(), ev.time)
	case evBankArrive:
		e.bankArrive(ev.req(), ev.time)
	case evBankDone:
		e.bankDone(int(ev.idx), ev.time)
	case evComplete:
		e.complete(int(ev.proc), ev.time)
	}
}

func (e *engine) inject(p int, now float64) {
	if e.disc == GPUShared {
		e.injectWarp(p, now)
		return
	}
	ps := &e.procs[p]
	if ps.next >= len(ps.addrs) {
		return
	}
	if e.cfg.Window > 0 && ps.outstanding >= e.cfg.Window {
		ps.blocked = true
		ps.blockedAt = now
		return
	}
	addr := ps.addrs[ps.next]
	req := request{proc: p, seq: e.nextSeq(), addr: addr, bank: bankOf(e.bmKind, e.bmArg, e.bm, addr)}
	ps.next++
	ps.outstanding++
	ps.nextIssueAt = now + e.cfg.Machine.G

	// Route into the network: either straight to the bank, or through the
	// bank's section first. A section reads its busy state when the
	// request arrives, so a transit delay makes the arrival an event of
	// its own. With no delay the arrival is handled here directly: nothing
	// between this inject and an evSectionArrive at the same instant
	// touches section state, so the order is the same, and the zero-delay
	// section path (the J90 default) skips one push and pop per request.
	switch {
	case len(e.sections) <= 1:
		e.events.push(event{time: now + e.cfg.NetDelay, seq: req.seq, kind: evBankArrive,
			proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
	case e.cfg.NetDelay > 0:
		e.events.push(event{time: now + e.cfg.NetDelay, seq: req.seq, kind: evSectionArrive,
			proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
	default:
		e.arriveSection(e.sectionOf(req.bank), req, now)
	}

	if ps.next < len(ps.addrs) {
		e.events.push(event{time: ps.nextIssueAt, seq: e.nextSeq(), kind: evInject, proc: int32(p)})
	}
}

// injectWarp is the GPUShared issue rule: processor p injects the next
// WarpSize requests of its stream as one warp-synchronous memory access.
// All lanes enter the network at now; the next warp is scheduled from
// complete once every lane's response has returned (outstanding == 0),
// no earlier than one issue gap after this one. Sections and windows are
// rejected by Validate, so lanes route straight to their banks.
func (e *engine) injectWarp(p int, now float64) {
	ps := &e.procs[p]
	w := len(ps.addrs) - ps.next
	if w <= 0 {
		return
	}
	if w > e.warpSize {
		w = e.warpSize
	}
	ps.nextIssueAt = now + e.cfg.Machine.G
	for i := 0; i < w; i++ {
		addr := ps.addrs[ps.next]
		req := request{proc: p, seq: e.nextSeq(), addr: addr, bank: bankOf(e.bmKind, e.bmArg, e.bm, addr)}
		ps.next++
		ps.outstanding++
		e.events.push(event{time: now + e.cfg.NetDelay, seq: req.seq, kind: evBankArrive,
			proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
	}
}

func (e *engine) arriveSection(sec int, req request, now float64) {
	s := &e.sections[sec]
	if e.rp != nil {
		e.rp.SectionArrive(sec, now, s.qlen())
	}
	if s.busy {
		s.enqueue(req)
		return
	}
	e.startSection(sec, req, now, false)
}

func (e *engine) startSection(sec int, req request, now float64, queued bool) {
	s := &e.sections[sec]
	s.busy = true
	if e.rp != nil {
		e.rp.SectionStart(sec, now, queued)
	}
	done := now + e.cfg.Machine.SectionGap
	e.events.push(event{time: done, seq: req.seq, kind: evSectionDone, idx: int32(sec),
		proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
}

func (e *engine) sectionDone(sec int, req request, now float64) {
	// Forward to the bank, then start the next queued request.
	e.events.push(event{time: now, seq: req.seq, kind: evBankArrive,
		proc: int32(req.proc), addr: req.addr, bank: int32(req.bank)})
	s := &e.sections[sec]
	if next, ok := s.dequeue(); ok {
		e.startSection(sec, next, now, true)
	} else {
		s.busy = false
	}
}

func (e *engine) bankArrive(req request, now float64) {
	b := &e.banks[req.bank]
	if e.rp != nil {
		e.rp.BankArrive(req.bank, now, b.qlen())
	}
	if b.busy {
		b.enqueue(req)
		return
	}
	e.startBank(req.bank, req, now, false)
}

// startBank begins a bank service. The discipline decides the service
// time and the actual start instant; the switch on e.disc is the whole
// dispatch — resolved to a tag at reset, monomorphic in the loop — so
// adding a discipline costs FIFO nothing (DESIGN.md §12). start may
// trail now when Regulated defers the request to the next regulation
// window; the bank is occupied for the deferral, exactly as real
// hardware holds the banked resource while it waits for its turn.
func (e *engine) startBank(bank int, req request, now float64, queued bool) {
	b := &e.banks[bank]
	b.busy = true
	start := now
	service := e.cfg.Machine.D
	rowHit := false
	switch e.disc {
	case FIFO:
		if e.rowsOn && e.rowAccess(bank, req.addr) {
			service = e.cfg.Bank.HitDelay
			rowHit = true
			e.res.RowHits++
		}
	case DRAM:
		if e.rowAccess(bank, req.addr) {
			service = e.cfg.Bank.HitDelay
			rowHit = true
			e.res.RowHits++
		} else {
			service = e.cfg.Bank.MissDelay
			e.res.RowConflicts++
		}
	case Regulated:
		ep := int64(now / e.regWindow)
		if ep > e.regEpoch[bank] {
			e.regEpoch[bank] = ep
			e.regUsed[bank] = 0
		}
		if e.regUsed[bank] >= e.regBudget {
			// Budget exhausted: hold the bank until the next window opens.
			e.regEpoch[bank]++
			e.regUsed[bank] = 0
			start = float64(e.regEpoch[bank]) * e.regWindow
			e.res.ThrottleStalls++
			e.res.ThrottleStallCycles += start - now
		}
		e.regUsed[bank]++
	case GPUShared:
		if queued {
			e.res.WarpReplays++
		}
	}
	done := start + service
	e.res.BankServices++
	e.res.BankBusy += service
	e.bankServe[bank]++

	// The request completes at done; its response transits back.
	e.respond(req, done)
	if e.rp != nil {
		e.rp.BankStart(bank, start, service, start-now, rowHit, queued)
	}
	e.events.push(event{time: done, seq: req.seq, kind: evBankDone, idx: int32(bank)})
}

// respond delivers the response for a request whose bank service finishes
// at done. In the open-loop default (Window == 0) no processor can ever
// block, so the response's only observable effect is advancing the
// completion clock — the per-request evComplete event is collapsed
// into a direct max, removing one push+pop per request from the dominant
// configuration. The resulting cycle counts are byte-identical: the
// closed-loop complete handler under Window == 0 only ever updates
// lastDone with the same now = done + NetDelay (outstanding/completed
// feed the Window check alone and blocked is never set). See DESIGN.md §9.
func (e *engine) respond(req request, done float64) {
	t := done + e.cfg.NetDelay
	if e.openLoop {
		if t > e.lastDone {
			e.lastDone = t
		}
		return
	}
	e.events.push(event{time: t, seq: req.seq, kind: evComplete, proc: int32(req.proc)})
}

// rowAccess reports whether addr's row is in bank's row buffer and
// updates the LRU state (most recent row at the end).
func (e *engine) rowAccess(bank int, addr uint64) bool {
	row := addr >> e.rowShift
	rows := e.bankRows[bank]
	for i, r := range rows {
		if r == row {
			// Move to MRU position.
			copy(rows[i:], rows[i+1:])
			rows[len(rows)-1] = row
			return true
		}
	}
	if len(rows) < e.rowLines {
		e.bankRows[bank] = append(rows, row)
	} else {
		copy(rows, rows[1:])
		rows[len(rows)-1] = row
	}
	return false
}

func (e *engine) bankDone(bank int, now float64) {
	b := &e.banks[bank]
	if next, ok := b.dequeue(); ok {
		e.startBank(bank, next, now, true)
	} else {
		b.busy = false
	}
}

func (e *engine) complete(p int, now float64) {
	ps := &e.procs[p]
	ps.outstanding--
	ps.completed++
	if now > e.lastDone {
		e.lastDone = now
	}
	if e.disc == GPUShared {
		// Warp barrier: the next warp issues only once every lane of the
		// current one has returned, no earlier than the issue gap allows.
		if ps.outstanding == 0 && ps.next < len(ps.addrs) {
			t := now
			if ps.nextIssueAt > t {
				t = ps.nextIssueAt
			}
			e.events.push(event{time: t, seq: e.nextSeq(), kind: evInject, proc: int32(p)})
		}
		return
	}
	if ps.blocked {
		ps.blocked = false
		if e.rp != nil {
			e.rp.WindowStall(p, ps.blockedAt, now)
		}
		t := now
		if ps.nextIssueAt > t {
			t = ps.nextIssueAt
		}
		e.events.push(event{time: t, seq: e.nextSeq(), kind: evInject, proc: int32(p)})
	}
}
