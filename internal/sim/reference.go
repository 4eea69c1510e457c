package sim

import (
	"fmt"
	"math"

	"dxbsp/internal/core"
)

// RunReference is an independent, deliberately naive per-clock
// implementation of the machine semantics Run implements. It exists purely
// as a correctness oracle for the event engine and the lockstep walk: it
// is written against the spec below and shares no code with wheel.go,
// sim.go or batch.go, so agreement is meaningful evidence. It is
// O(ticks * actions per tick²): use small inputs.
//
// Time runs in integer ticks of 2⁻ᵏ cycles, the coarsest k ≤ 4 that makes
// every delay in use integral, so every instant is exact. Each tick
// applies the actions due at it one at a time, least (kind, seq) first,
// including actions an earlier action of the same tick created. The kinds,
// in order, and what each does:
//
//   - inject(p): processor p issues its next request (a fresh seq), which
//     reaches its section (sections on) or its bank NetDelay later; a next
//     inject(p) with the following seq is due G later while p has
//     requests left. With Window > 0 and Window requests outstanding, p
//     instead blocks until a completion. Under GPUShared p issues up to
//     WarpSize requests at once and the next warp waits for all of them.
//   - sectionArrive(r): an idle section starts forwarding r; a busy one
//     queues it.
//   - sectionDone(r): SectionGap after its start, r reaches its bank at
//     once and the section starts its next queued request.
//   - bankArrive(r): an idle bank starts serving r; a busy one queues it.
//     Arrivals precede a same-tick bankDone, so they queue behind it.
//   - bankDone: the bank starts its next queued request, or goes idle.
//   - complete(r): r's response reaches its processor, NetDelay after its
//     service ends; the run ends with the last one. It unblocks a blocked
//     processor (or, under GPUShared, releases the next warp once the
//     whole warp is back) no earlier than its next issue slot.
//
// A service start applies the bank discipline: FIFO serves in D (or
// HitDelay on a row-buffer hit when CacheLines > 0); DRAM in HitDelay on
// an open-row hit and MissDelay otherwise, starting no earlier than its
// bank group's next GroupGap slot; Regulated defers a start past its
// bank's budget to the next RegWindow boundary; GPUShared counts a queued
// start as a warp replay. A deferred start holds the bank through the
// wait. Under Combining the service also answers every request for the
// same address queued behind it.
//
// The one configuration it rejects is a delay that is not a multiple of
// 1/16 cycle.
func RunReference(cfg Config, pt core.Pattern) (Result, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return Result{}, err
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if pt.Procs() > cfg.Machine.Procs {
		return Result{}, fmt.Errorf("sim: RunReference: pattern has %d processor streams, machine %d",
			pt.Procs(), cfg.Machine.Procs)
	}
	m, bc := cfg.Machine, cfg.Bank
	gpu := bc.Discipline == GPUShared
	sections := cfg.UseSections && m.Sections > 1
	rowsOn := bc.CacheLines > 0
	groupsOn := bc.Discipline == DRAM && bc.Groups > 0 && bc.GroupGap > 0

	delays := []float64{m.G, m.D, cfg.NetDelay}
	if sections {
		delays = append(delays, m.SectionGap)
	}
	if rowsOn {
		delays = append(delays, bc.HitDelay)
	}
	switch bc.Discipline {
	case DRAM:
		delays = append(delays, bc.MissDelay, bc.GroupGap)
	case Regulated:
		delays = append(delays, bc.RegWindow)
	}
	scale := 0.0
	for k := 0; k <= 4 && scale == 0; k++ {
		s := math.Ldexp(1, k)
		scale = s
		for _, v := range delays {
			if v*s != math.Trunc(v*s) {
				scale = 0
			}
		}
	}
	if scale == 0 {
		return Result{}, fmt.Errorf("sim: RunReference needs every delay to be a multiple of 1/16 cycle")
	}
	ticks := func(v float64) int64 { return int64(v * scale) }
	g, d, nd := ticks(m.G), ticks(m.D), ticks(cfg.NetDelay)
	secGap, hit, miss := ticks(m.SectionGap), ticks(bc.HitDelay), ticks(bc.MissDelay)
	gap, regW := ticks(bc.GroupGap), ticks(bc.RegWindow)

	const (
		inject = iota
		sectionArrive
		sectionDone
		bankArrive
		bankDone
		complete
	)
	type req struct {
		proc, seq int
		addr      uint64
		bank      int
	}
	type action struct {
		kind int
		seq  int
		r    req // the request; for inject only r.proc is set
		unit int // the section of sectionDone, the bank of bankDone
	}
	type station struct {
		busy  bool
		queue []req
	}
	type proc struct {
		next, outstanding int
		blocked           bool
		nextIssue         int64
	}

	res := Result{Requests: pt.N()}
	due := map[int64][]action{}
	pending := 0
	post := func(at int64, a action) {
		due[at] = append(due[at], a)
		pending++
	}
	seq := 0
	newSeq := func() int { seq++; return seq }

	procs := make([]proc, pt.Procs())
	secs := make([]station, m.Sections)
	banks := make([]station, m.Banks)
	served := make([]int, m.Banks)
	rows := make([][]uint64, m.Banks)
	regEpoch := make([]int64, m.Banks)
	regUsed := make([]int, m.Banks)
	banksPerSection, banksPerGroup := m.Banks, m.Banks
	if sections {
		banksPerSection = (m.Banks + m.Sections - 1) / m.Sections
	}
	if bc.Groups > 0 {
		banksPerGroup = (m.Banks + bc.Groups - 1) / bc.Groups
	}
	groupReady := make([]int64, max(bc.Groups, 1))
	rowShift := rowShiftOf(bc.RowWords)
	var busyTicks, stallTicks, lastDone int64

	// rowHit looks addr's row up in bank b's LRU row buffer (most recent
	// last) and records the access.
	rowHit := func(b int, addr uint64) bool {
		row := addr >> rowShift
		for i, r := range rows[b] {
			if r == row {
				rows[b] = append(append(rows[b][:i:i], rows[b][i+1:]...), row)
				return true
			}
		}
		if len(rows[b]) == bc.CacheLines {
			rows[b] = rows[b][1:]
		}
		rows[b] = append(rows[b], row)
		return false
	}

	respond := func(r req, doneAt int64) {
		served[r.bank]++
		post(doneAt+nd, action{kind: complete, seq: r.seq, r: r})
	}

	startBank := func(b int, r req, now int64, queued bool) {
		banks[b].busy = true
		start, service := now, d
		switch bc.Discipline {
		case FIFO:
			if rowsOn && rowHit(b, r.addr) {
				service = hit
				res.RowHits++
			}
		case DRAM:
			if rowHit(b, r.addr) {
				service = hit
				res.RowHits++
			} else {
				service = miss
				res.RowConflicts++
			}
			if groupsOn {
				grp := b / banksPerGroup
				start = max(start, groupReady[grp])
				groupReady[grp] = start + gap
			}
		case Regulated:
			if ep := now / regW; ep > regEpoch[b] {
				regEpoch[b], regUsed[b] = ep, 0
			}
			if regUsed[b] >= bc.RegBudget {
				regEpoch[b]++
				regUsed[b] = 0
				start = regEpoch[b] * regW
				res.ThrottleStalls++
				stallTicks += start - now
			}
			regUsed[b]++
		case GPUShared:
			if queued {
				res.WarpReplays++
			}
		}
		res.BankServices++
		busyTicks += service
		respond(r, start+service)
		if cfg.Combining {
			var rest []req
			for _, q := range banks[b].queue {
				if q.addr == r.addr {
					respond(q, start+service)
				} else {
					rest = append(rest, q)
				}
			}
			banks[b].queue = rest
		}
		post(start+service, action{kind: bankDone, seq: r.seq, unit: b})
	}

	startSection := func(s int, r req, now int64) {
		secs[s].busy = true
		post(now+secGap, action{kind: sectionDone, seq: r.seq, r: r, unit: s})
	}

	issue := func(p int, now int64) {
		addr := pt.PerProc[p][procs[p].next]
		r := req{proc: p, seq: newSeq(), addr: addr, bank: cfg.BankMap.Bank(addr)}
		procs[p].next++
		procs[p].outstanding++
		if sections {
			post(now+nd, action{kind: sectionArrive, seq: r.seq, r: r})
		} else {
			post(now+nd, action{kind: bankArrive, seq: r.seq, r: r})
		}
	}

	for p, addrs := range pt.PerProc {
		if len(addrs) > 0 {
			post(0, action{kind: inject, seq: newSeq(), r: req{proc: p}})
		}
	}

	// Non-termination guard only: every request's issue gap, transit both
	// ways, section slot, longest service and longest deferral, all
	// serialized, bound the whole run.
	limit := int64(pt.N()+1)*(g+2*nd+secGap+d+hit+miss+gap*int64(banksPerGroup)+regW+1) + 1000
	for clock := int64(0); pending > 0; clock++ {
		if clock > limit {
			return Result{}, fmt.Errorf("sim: RunReference did not converge")
		}
		for len(due[clock]) > 0 {
			list := due[clock]
			least := 0
			for i, a := range list {
				if a.kind < list[least].kind || a.kind == list[least].kind && a.seq < list[least].seq {
					least = i
				}
			}
			a := list[least]
			list[least] = list[len(list)-1]
			due[clock] = list[:len(list)-1]
			pending--

			switch a.kind {
			case inject:
				p := a.r.proc
				ps := &procs[p]
				switch {
				case gpu:
					ps.nextIssue = clock + g
					for w := 0; w < bc.WarpSize && ps.next < len(pt.PerProc[p]); w++ {
						issue(p, clock)
					}
				case cfg.Window > 0 && ps.outstanding >= cfg.Window:
					ps.blocked = true
				default:
					ps.nextIssue = clock + g
					issue(p, clock)
					if ps.next < len(pt.PerProc[p]) {
						post(ps.nextIssue, action{kind: inject, seq: newSeq(), r: req{proc: p}})
					}
				}
			case sectionArrive:
				s := a.r.bank / banksPerSection
				if secs[s].busy {
					secs[s].queue = append(secs[s].queue, a.r)
					res.MaxSectionQueue = max(res.MaxSectionQueue, len(secs[s].queue))
				} else {
					startSection(s, a.r, clock)
				}
			case sectionDone:
				post(clock, action{kind: bankArrive, seq: a.r.seq, r: a.r})
				s := &secs[a.unit]
				if len(s.queue) > 0 {
					next := s.queue[0]
					s.queue = s.queue[1:]
					startSection(a.unit, next, clock)
				} else {
					s.busy = false
				}
			case bankArrive:
				b := a.r.bank
				if banks[b].busy {
					banks[b].queue = append(banks[b].queue, a.r)
					res.MaxBankQueue = max(res.MaxBankQueue, len(banks[b].queue))
				} else {
					startBank(b, a.r, clock, false)
				}
			case bankDone:
				b := &banks[a.unit]
				if len(b.queue) > 0 {
					next := b.queue[0]
					b.queue = b.queue[1:]
					startBank(a.unit, next, clock, true)
				} else {
					b.busy = false
				}
			case complete:
				ps := &procs[a.r.proc]
				ps.outstanding--
				lastDone = max(lastDone, clock)
				more := ps.next < len(pt.PerProc[a.r.proc])
				if (gpu && ps.outstanding == 0 && more) || ps.blocked {
					ps.blocked = false
					post(max(clock, ps.nextIssue), action{kind: inject, seq: newSeq(), r: req{proc: a.r.proc}})
				}
			}
		}
		delete(due, clock)
	}

	res.Cycles = float64(lastDone) / scale
	res.BankBusy = float64(busyTicks) / scale
	res.ThrottleStallCycles = float64(stallTicks) / scale
	for b := range banks {
		res.MaxBankServed = max(res.MaxBankServed, served[b])
	}
	return res, nil
}
