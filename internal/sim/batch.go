package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"dxbsp/internal/core"
)

// lockstep is the lockstep walk: it simulates one BatchEligible config
// by walking the access pattern round by round instead of through an
// event queue (DESIGN.md §14). RunContext sends every eligible config
// here, through lockstepPool.
//
// The walk replays exactly the floating-point operations of the event
// loop in exactly its order (see the correctness argument on run and
// DESIGN.md §16), so its Result is byte-identical to Engine.Run of the
// same config — pinned by the golden 128-config diff, FuzzBatchVsScalar
// and TestWideWindowMatchesOpenLoop.
//
// The eligible regime covers the open- and closed-loop (Window > 0)
// FIFO bank, the Regulated bank, and row-buffer DRAM without bank
// groups. A closed-loop run advances in lockstep while no processor is
// window-blocked; at the first stall it finishes in a replay of the
// event engine's remaining events (runReplay).
//
// Like Engine, a lockstep is single-run at a time and retains every
// arena across runs, so warm runs allocate nothing
// (TestBatchEngineReuseZeroAllocs pins it).
type lockstep struct {
	g, nd, d float64 // issue gap, one-way net delay, service time
	injT     float64 // current round's injection time (accumulated += g)
	lastDone float64 // completion clock (max response arrival)
	busyAcc  float64 // total bank busy time (+= service per service)
	maxQ     int32   // high-water queue depth over all banks

	// Bank-map dispatch, resolved at reset: a tag plus argument for the
	// two interleave families, with the boxed interface used only for
	// custom maps (mapGeneric).
	mk    mapKind
	mkArg uint64
	bm    core.BankMap

	cls svcClass
	win int32 // Window (0 = open loop)

	// Discipline parameters, meaningful per class: the DRAM row shift
	// and hit/miss service times, the Regulated window and budget.
	rowShift    uint8
	hitD, missD float64
	regW        float64
	regB        int32

	// seq replays the event engine's nextSeq stream exactly (blocked
	// injection attempts consume none, every schedule consumes one); the
	// tallies are ints, so accumulation order is free.
	seq       int32
	rowHits   int32
	rowConf   int32
	thrStalls int32

	// Per-bank arenas. lastFin[i] is the finish time of the latest
	// request at bank i; frontStart[i]/qn[i] model a constant-service
	// FIFO queue without storing it (see run); serve[i] counts services
	// for MaxBankServed.
	lastFin    []float64
	frontStart []float64
	qn         []int32
	serve      []int32

	// Per-bank arenas for the variable-service classes (DRAM, Regulated),
	// empty for FIFO: the open row tag, the regulation window accounting,
	// the seq of the bank's latest request (ordering key for deferred
	// accumulation), and a ring of waiter dequeue times replacing the
	// constant-d frontStart arithmetic (a waiter leaves the queue exactly
	// when its predecessor finishes, which is the value of lastFin at its
	// enqueue).
	rowTag   []uint64
	rowHas   []bool
	regEpoch []int64
	regUsed  []int32
	lastSeq  []int32
	ringBuf  [][]float64 // power-of-two rings, grown on demand, retained
	ringHead []int32
	ringN    []int32

	// Per-processor arenas for closed-loop runs: requests in flight and
	// the seq of the processor's pending inject event.
	outst  []int32
	injSeq []int32

	// comp is a closed-loop run's pending-completion min-heap (ordered by
	// time): a completion strictly before the next injection grid point
	// has been processed by the event engine before that inject, so it
	// drains outst at round start. busyEvs collects float accumulations
	// whose event-engine order differs from arrival order (DRAM BankBusy,
	// Regulated ThrottleStallCycles); they are sorted by event key and
	// summed in result.
	comp    []compEv
	busyEvs []busyEv

	// Replay scratch, sized to the pattern's processor count for
	// closed-loop runs. The replay keeps no global event queue — each
	// processor exposes at most one actionable candidate (its pending
	// injection attempt, or, when blocked, the head of its private
	// completion heap rComp[q]) and a tournament tree over the candidates
	// yields the event-order minimum (see runReplay).
	rNext  []int32
	rNIA   []float64
	rCandT []float64 // candidate time, +Inf when the proc has none
	rCandA []int64   // candidate aux key: kind<<32 | seq
	rComp  [][]compEv

	// rTree is the replay's tournament tree over leaves = nextpow2(np)
	// candidate slots, len(rTree) = 2*leaves: rTree[leaves+q] = q, and
	// each internal node i holds the (time, kind, seq)-smaller of its
	// children's candidates, so rTree[1] is the minimum. Slots q >= np
	// are padding whose candidates stay idle sentinels. reset sizes the
	// tree and fills the leaves and padding; runReplay builds the
	// internal nodes.
	rTree []int32

	// defMap caches the boxed default BankMap, as Engine.defMap does.
	defMap defaultMap
}

// svcClass is the service-discipline class the lockstep walk dispatches
// on per arrival.
type svcClass uint8

const (
	clFIFO svcClass = iota // constant-d FIFO service
	clDRAM                 // single open row per bank, no bank groups
	clReg                  // bandwidth-regulated bank
)

// compEv is one pending closed-loop completion: the response for request
// seq (issued by proc) arrives back at its processor at time t.
type compEv struct {
	t         float64
	seq, proc int32
}

// busyEv is one deferred float accumulation: value v added to a Result
// accumulator during the event with time t and packed (kind, seq) key.
type busyEv struct {
	t   float64
	key uint64
	v   float64
}

// cmpBusyEv orders deferred accumulations by event (time, key).
func cmpBusyEv(a, b busyEv) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// mapKind tags the bank-map families the hot loops inline instead of
// making an interface call per request. resolveMap classifies a map once
// per reset; bankOf dispatches on the tag.
type mapKind uint8

const (
	mapGeneric mapKind = iota // anything else: interface call
	mapMod                    // InterleaveMap: addr % banks
	mapMask                   // InterleaveMap, power-of-two banks: addr & mask
	mapGPUMod                 // GPUSharedMap: (addr / 4) % banks
	mapGPUMask                // GPUSharedMap, power-of-two banks: (addr >> 2) & mask
)

// resolveMap classifies bm into an inline-dispatch tag and argument.
// Unknown implementations fall back to the interface call (mapGeneric).
func resolveMap(bm core.BankMap) (mapKind, uint64) {
	switch m := bm.(type) {
	case core.InterleaveMap:
		b := uint64(m.Banks)
		if b&(b-1) == 0 {
			return mapMask, b - 1
		}
		return mapMod, b
	case core.GPUSharedMap:
		b := uint64(m.Banks)
		if b&(b-1) == 0 {
			return mapGPUMask, b - 1
		}
		return mapGPUMod, b
	}
	return mapGeneric, 0
}

// bankOf computes the bank for addr under a resolved map. The integer
// identities are exact ((addr/4)%2^k == (addr>>2)&(2^k-1)), so the tag
// paths return precisely what the interface call would.
func bankOf(kind mapKind, arg uint64, bm core.BankMap, addr uint64) int {
	switch kind {
	case mapMask:
		return int(addr & arg)
	case mapMod:
		return int(addr % arg)
	case mapGPUMask:
		return int((addr >> 2) & arg)
	case mapGPUMod:
		return int((addr / 4) % arg)
	}
	return bm.Bank(addr)
}

// BatchEligible reports whether cfg takes the lockstep walk: open- or
// closed-loop FIFO, Regulated, or ungrouped single-row DRAM, with no
// combining, no section bottleneck and no probe. It is RunContext's
// routing rule: eligible configs run on the lockstep walk, the rest on
// the event engine. Equivalent to BatchFallbackReason(cfg) == "".
func BatchEligible(cfg Config) bool {
	return BatchFallbackReason(cfg) == ""
}

// BatchFallbackReason returns "" when cfg is lockstep-eligible, or a
// short stable label naming the structural reason it is not — the label
// set the runner's batch-efficacy metrics report. It is deterministic on
// raw and normalized configs alike (the runner's Batcher classifies raw
// configs), so the one default it must anticipate is DRAM's CacheLines,
// where unset means one open row.
func BatchFallbackReason(cfg Config) string {
	if cfg.Combining {
		return "combining"
	}
	if cfg.Probe != nil {
		return "probe"
	}
	if cfg.UseSections && cfg.Machine.Sections > 1 {
		return "sections"
	}
	switch cfg.Bank.Discipline {
	case FIFO:
		if cfg.Bank.CacheLines > 0 {
			return "row-cache"
		}
	case DRAM:
		if cfg.Bank.Groups > 0 {
			return "dram-groups"
		}
		if cfg.Bank.CacheLines > 1 {
			return "dram-multirow"
		}
	case Regulated:
		// Fully eligible: the window accounting is per-bank state.
	default:
		return "gpu-shared"
	}
	return ""
}

// lockstepPool recycles lockstep engines across RunContext calls exactly
// as enginePool recycles event engines. A run drops its borrowed bank map
// before returning, so a parked engine pins only its own arenas.
var lockstepPool = sync.Pool{New: func() any { return new(lockstep) }}

// batchPollRequests is how many requests pass between context polls on
// the lockstep walk — its analogue of cancelCheckEvents.
const batchPollRequests = 4096

// run validates cfg and pt exactly as Engine.Run does, with the same
// errors, then simulates one superstep of pt under cfg, which must be
// BatchEligible.
//
// Correctness. In the open-loop FIFO regime the event loop is fully
// determined:
//
//   - Processor p injects its r-th request at t_r, with t_0 = 0 and
//     t_{r+1} = t_r + G (inject accumulates nextIssueAt = now + G), so
//     injT replays the identical float sum. Within a round, injects fire
//     in processor order (their seqs were assigned in that order the
//     round before), so request seqs ascend (round, proc)-lexically.
//   - Every request arrives at its bank at a = t_r + NetDelay. Arrivals
//     at one bank are ordered by (time, seq); both orders agree with
//     (round, proc), so walking round-major then proc-major visits each
//     bank's arrivals in exactly the event engine's service order.
//   - A bank is busy at arrival a iff the previous request's finish
//     f >= a: bank-done at time == a has event kind evBankDone >
//     evBankArrive, so the done fires after the arrival and the arrival
//     queues. A queued request starts when its predecessor finishes, so
//     finishes chain f_i = f_{i-1} + d — the same float op the event
//     engine performs — and an idle bank serves on arrival, f = a + d.
//   - Queue depth: the event engine's ring counts waiters excluding the
//     one in service. Rather than store the queue, we keep the oldest
//     waiter's start time (frontStart) and the waiter count (qn): a
//     waiter has left the queue by time a iff its start s < a (a start
//     at s == a comes from a done at s, kind evBankDone, which fires
//     after the arrival), and successive waiters' starts differ by
//     exactly += d, so popping replays the exact floats the event
//     engine computed.
//   - Responses only advance the completion clock (open loop collapses
//     evComplete): lastDone = max over requests of f + NetDelay, and
//     BankBusy accumulates += d per service — order-independent here
//     because d is constant.
//
// The widened regime (DESIGN.md §16) keeps the same skeleton:
//
//   - Closed loop (Window > 0): while no processor is window-blocked,
//     the closed-loop event run performs exactly the open-loop float
//     ops — injections stay on the grid and completions only drain the
//     window. A completion strictly earlier than an injection attempt
//     has been processed before it (kind evInject < evComplete breaks
//     the time tie the other way), so outst is drained from the
//     pending-completion heap at each round start with strict <. The
//     first attempt that would block is exactly where the event engine
//     leaves the grid, so the walk stops there and runReplay finishes
//     the run event-exactly.
//   - DRAM/Regulated service times vary per request, so the constant-d
//     frontStart/qn drain is replaced by a per-bank ring of waiter
//     dequeue times (a waiter dequeues exactly when its predecessor
//     finishes — the value of lastFin at its enqueue), and float
//     accumulators whose event order is the global service-start order
//     rather than arrival order (DRAM BankBusy, Regulated
//     ThrottleStallCycles) are deferred: recorded with their (time,
//     kind, seq) event key, sorted, and summed in result so the
//     partial-sum rounding is bit-identical.
func (b *lockstep) run(ctx context.Context, cfg Config, pt core.Pattern) (Result, error) {
	cfg, err := prepare(cfg, pt, &b.defMap)
	if err != nil {
		return Result{}, err
	}
	b.reset(cfg, pt)
	maxLen := 0
	for _, addrs := range pt.PerProc {
		maxLen = max(maxLen, len(addrs))
	}
	if b.cls == clFIFO && b.win == 0 {
		err = b.runPlain(ctx, pt, maxLen)
	} else {
		err = b.runMixed(ctx, pt, maxLen)
	}
	b.bm = nil
	if err != nil {
		return Result{}, err
	}
	return b.result(pt.N()), nil
}

// reset re-arms the engine for the prepared cfg, reusing retained
// storage.
func (b *lockstep) reset(cfg Config, pt core.Pattern) {
	banks := cfg.Machine.Banks
	b.g, b.nd, b.d = cfg.Machine.G, cfg.NetDelay, cfg.Machine.D
	b.injT, b.lastDone, b.busyAcc, b.maxQ = 0, 0, 0, 0
	b.mk, b.mkArg = resolveMap(cfg.BankMap)
	b.bm = cfg.BankMap
	b.win = int32(cfg.Window)
	b.rowHits, b.rowConf, b.thrStalls = 0, 0, 0
	switch cfg.Bank.Discipline {
	case DRAM:
		b.cls = clDRAM
		b.rowShift = uint8(rowShiftOf(cfg.Bank.RowWords))
		b.hitD, b.missD = cfg.Bank.HitDelay, cfg.Bank.MissDelay
	case Regulated:
		b.cls = clReg
		b.regW, b.regB = cfg.Bank.RegWindow, int32(cfg.Bank.RegBudget)
	default:
		b.cls = clFIFO
	}

	b.lastFin = growSlice(b.lastFin, banks)
	b.frontStart = growSlice(b.frontStart, banks)
	b.qn = growSlice(b.qn, banks)
	b.serve = growSlice(b.serve, banks)
	for i := range b.lastFin {
		b.lastFin[i] = -1 // any arrival time is >= 0, so -1 reads as idle
		b.frontStart[i] = 0
		b.qn[i] = 0
		b.serve[i] = 0
	}

	vb := 0
	if b.cls != clFIFO {
		vb = banks
	}
	b.rowTag = growSlice(b.rowTag, vb)
	b.rowHas = growSlice(b.rowHas, vb)
	b.regEpoch = growSlice(b.regEpoch, vb)
	b.regUsed = growSlice(b.regUsed, vb)
	b.lastSeq = growSlice(b.lastSeq, vb)
	b.ringBuf = growNested(b.ringBuf, vb)
	b.ringHead = growSlice(b.ringHead, vb)
	b.ringN = growSlice(b.ringN, vb)
	for i := 0; i < vb; i++ {
		b.rowTag[i] = 0
		b.rowHas[i] = false
		b.regEpoch[i] = 0
		b.regUsed[i] = 0
		b.lastSeq[i] = 0
		b.ringHead[i] = 0
		b.ringN[i] = 0
	}
	b.busyEvs = b.busyEvs[:0]

	// Replay the event engine's reset: one evInject seq per processor with
	// a non-empty stream, assigned in processor order.
	np := 0
	if b.win > 0 {
		np = pt.Procs()
	}
	b.outst = growSlice(b.outst, np)
	b.injSeq = growSlice(b.injSeq, np)
	b.comp = b.comp[:0]
	b.seq = 0
	for q, addrs := range pt.PerProc {
		if len(addrs) > 0 {
			b.seq++
		}
		if q < np {
			b.outst[q] = 0
			b.injSeq[q] = b.seq
		}
	}

	b.rNext = growSlice(b.rNext, np)
	b.rNIA = growSlice(b.rNIA, np)
	b.rComp = growNested(b.rComp, np)
	leaves := 1
	for leaves < np {
		leaves <<= 1
	}
	b.rCandT = growSlice(b.rCandT, leaves)
	b.rCandA = growSlice(b.rCandA, leaves)
	b.rTree = growSlice(b.rTree, 2*leaves)
	for q := 0; q < leaves; q++ {
		b.rTree[leaves+q] = int32(q)
		if q >= np {
			b.rCandT[q] = math.Inf(1)
			b.rCandA[q] = repAuxNone
		}
	}
}

// growSlice returns s resized to length n, reusing capacity and zeroing
// nothing (callers reinitialize the active region themselves).
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// growNested resizes an outer slice of retained inner slices, carrying
// the grown inner buffers over so warm runs never re-allocate them.
func growNested[T any](s [][]T, n int) [][]T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([][]T, n)
	copy(ns, s[:cap(s)])
	return ns
}

// runPlain is the walk for open-loop FIFO: no class dispatch, no stall
// detection and no seq bookkeeping, with the state in locals. runMixed
// computes the same results, but sending these configs through it
// measured slower (10 alternating pairs on a 2-vCPU Xeon:
// BenchmarkSimScatter64K +15%, BenchmarkBatchExpansion +5%), so the
// split stays.
func (b *lockstep) runPlain(ctx context.Context, pt core.Pattern, maxLen int) error {
	g, nd, dl := b.g, b.nd, b.d
	mk, mkArg, bm := b.mk, b.mkArg, b.bm
	lastFin, frontStart, qn, serve := b.lastFin, b.frontStart, b.qn, b.serve
	var injT, lastDone, busy float64
	var maxQ int32
	served, nextPoll := 0, 0 // poll before the first round too
	for r := 0; r < maxLen; r++ {
		if served >= nextPoll {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: batch cancelled after %d requests: %w", served, err)
			}
			nextPoll = served + batchPollRequests
		}
		a := injT + nd
		for _, addrs := range pt.PerProc {
			if r >= len(addrs) {
				continue
			}
			bank := bankOf(mk, mkArg, bm, addrs[r])
			done := a + dl
			if f := lastFin[bank]; f >= a {
				// Busy: drain waiters already started before a, then queue.
				fs, n := frontStart[bank], qn[bank]
				for n > 0 && fs < a {
					fs += dl
					n--
				}
				n++
				if n == 1 {
					fs = f
				}
				frontStart[bank] = fs
				qn[bank] = n
				maxQ = max(maxQ, n)
				done = f + dl
			} else {
				qn[bank] = 0
			}
			lastFin[bank] = done
			serve[bank]++
			busy += dl
			if t := done + nd; t > lastDone {
				lastDone = t
			}
			served++
		}
		injT += g
	}
	b.lastDone, b.busyAcc, b.maxQ = lastDone, busy, maxQ
	return nil
}

// runMixed is the walk for every other eligible config: DRAM and
// Regulated take the variable-service path of serveArrival, and
// closed-loop runs additionally track the in-flight window and finish
// in runReplay at their first stall.
func (b *lockstep) runMixed(ctx context.Context, pt core.Pattern, maxLen int) error {
	win := b.win
	served, nextPoll := 0, 0 // poll before the first round too
	for r := 0; r < maxLen; r++ {
		if served >= nextPoll {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: batch cancelled after %d requests: %w", served, err)
			}
			nextPoll = served + batchPollRequests
		}
		// A completion strictly before this round's injection grid point
		// precedes every one of the round's inject events in event order,
		// so it has already released its window slot.
		if win > 0 && len(b.comp) > 0 {
			b.drainComp(b.injT)
		}
		a := b.injT + b.nd
		for p, addrs := range pt.PerProc {
			if r >= len(addrs) {
				continue
			}
			if win > 0 && b.outst[p] >= win {
				// Window stall: exactly where the event engine leaves the
				// injection grid. Replay the rest; the blocked attempt
				// consumes no seq.
				return b.runReplay(ctx, pt, r, p)
			}
			reqSeq := b.seq + 1
			b.seq = reqSeq
			if r+1 < len(addrs) {
				b.seq++
				if win > 0 {
					b.injSeq[p] = b.seq
				}
			}
			addr := addrs[r]
			done := b.serveArrival(bankOf(b.mk, b.mkArg, b.bm, addr), a, addr, reqSeq, false)
			t := done + b.nd
			if t > b.lastDone {
				b.lastDone = t
			}
			if win > 0 {
				b.outst[p]++
				b.pushComp(compEv{t: t, seq: reqSeq, proc: int32(p)})
			}
			served++
		}
		b.injT += b.g
	}
	return nil
}

// serveArrival services one arrival of runMixed or runReplay: arrival
// time a, request sequence reqSeq, returning the service finish time.
// It replays the event engine's startBank for the class, including the
// queue bookkeeping.
//
// late marks an arrival the event engine processes after the bank-done
// events at its own timestamp have already fired: a replay re-inject at
// its completion's instant with NetDelay 0 (replay kind 1). For such an
// arrival, a service finishing exactly at a has completed (the bank may
// be idle at f == a) and a waiter whose service starts exactly at a has
// left the queue — so the busy test and the dequeue drains tighten from
// strict to inclusive comparisons against a.
func (b *lockstep) serveArrival(bank int, a float64, addr uint64, reqSeq int32, late bool) float64 {
	f := b.lastFin[bank]
	if b.cls == clFIFO {
		// Closed-loop FIFO: service is the constant d, so the open-loop
		// frontStart/qn arithmetic applies verbatim.
		dl := b.d
		done := a + dl
		if f > a || (f == a && !late) {
			fs, n := b.frontStart[bank], b.qn[bank]
			for n > 0 && (fs < a || (late && fs == a)) {
				fs += dl
				n--
			}
			n++
			if n == 1 {
				fs = f
			}
			b.frontStart[bank] = fs
			b.qn[bank] = n
			b.maxQ = max(b.maxQ, n)
			done = f + dl
		} else {
			b.qn[bank] = 0
		}
		b.lastFin[bank] = done
		b.serve[bank]++
		b.busyAcc += dl
		return done
	}

	// Variable-service classes (DRAM, Regulated). The event engine's
	// start event for a queued request is its predecessor's bank-done
	// (kind evBankDone, the predecessor's seq); for an idle bank it is the
	// arrival itself (kind evBankArrive, own seq). That key orders the
	// deferred float accumulations.
	var start float64
	var key uint64
	if f > a || (f == a && !late) {
		// Busy: waiters dequeue exactly when their predecessors finish,
		// so the ring of recorded finishes replays the queue.
		buf := b.ringBuf[bank]
		h, n := int(b.ringHead[bank]), int(b.ringN[bank])
		if n > 0 {
			mask := len(buf) - 1
			for n > 0 && (buf[h] < a || (late && buf[h] == a)) {
				h = (h + 1) & mask
				n--
			}
		}
		if n == len(buf) {
			grown := make([]float64, max(8, 2*len(buf)))
			if n > 0 {
				mask := len(buf) - 1
				for i := 0; i < n; i++ {
					grown[i] = buf[(h+i)&mask]
				}
			}
			buf = grown
			h = 0
			b.ringBuf[bank] = buf
		}
		buf[(h+n)&(len(buf)-1)] = f
		n++
		b.ringHead[bank] = int32(h)
		b.ringN[bank] = int32(n)
		b.maxQ = max(b.maxQ, int32(n))
		start = f
		key = 3<<32 | uint64(uint32(b.lastSeq[bank]))
	} else {
		b.ringHead[bank] = 0
		b.ringN[bank] = 0
		start = a
		key = 2<<32 | uint64(uint32(reqSeq))
	}

	var service float64
	if b.cls == clDRAM {
		row := addr >> uint(b.rowShift)
		if b.rowHas[bank] && b.rowTag[bank] == row {
			service = b.hitD
			b.rowHits++
		} else {
			b.rowTag[bank] = row
			b.rowHas[bank] = true
			service = b.missD
			b.rowConf++
		}
		// DRAM services vary (hit vs miss), so BankBusy's partial sums
		// depend on the event engine's accumulation order; defer to
		// result.
		b.busyEvs = append(b.busyEvs, busyEv{t: start, key: key, v: service})
	} else {
		rw := b.regW
		ep := int64(start / rw)
		if ep > b.regEpoch[bank] {
			b.regEpoch[bank] = ep
			b.regUsed[bank] = 0
		}
		if b.regUsed[bank] >= b.regB {
			// Budget exhausted: hold the bank until the next window opens.
			b.regEpoch[bank]++
			b.regUsed[bank] = 0
			ns := float64(b.regEpoch[bank]) * rw
			b.thrStalls++
			b.busyEvs = append(b.busyEvs, busyEv{t: start, key: key, v: ns - start})
			start = ns
		}
		b.regUsed[bank]++
		service = b.d
		b.busyAcc += service
	}
	done := start + service
	b.lastFin[bank] = done
	b.lastSeq[bank] = reqSeq
	b.serve[bank]++
	return done
}

// drainComp pops the pending completions strictly earlier than t,
// releasing their processors' window slots. Completion responses update
// the completion clock at push time (max, order-independent), so the
// drain only touches outst.
func (b *lockstep) drainComp(t float64) {
	h := b.comp
	for len(h) > 0 && h[0].t < t {
		b.outst[h[0].proc]--
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		// Sift down by time.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].t < h[c].t {
				c++
			}
			if h[i].t <= h[c].t {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	b.comp = h
}

// pushComp inserts a pending completion into the min-heap.
func (b *lockstep) pushComp(e compEv) {
	h := append(b.comp, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].t <= h[i].t {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	b.comp = h
}

// Replay candidate aux keys: the event kind packed above the request
// seq, so one int64 comparison resolves the (kind, seq) tie-break. Kind
// 0 is an injection attempt, 1 a late re-inject (see runReplay), 4 a
// completion — the event queue's evInject/evComplete tags. repAuxNone
// pairs with a +Inf candidate time to mark an idle processor; it
// compares greater than every live key.
const (
	repAuxLate = int64(1) << 32
	repAuxComp = int64(4) << 32
	repAuxNone = int64(math.MaxInt64)
)

// pcLess orders a processor's private replay completions by (time,
// seq) — the event queue's key restricted to one kind. Time alone is
// not enough: when two blocked processors hold same-time head
// completions, the smaller request seq unblocks first in the event
// engine, and the unblock order assigns the fresh re-inject seqs that
// order the re-arrivals at the banks.
func pcLess(a, x *compEv) bool {
	if a.t != x.t {
		return a.t < x.t
	}
	return a.seq < x.seq
}

// pushPC inserts a completion into one processor's replay min-heap.
func pushPC(h []compEv, e compEv) []compEv {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if pcLess(&h[parent], &h[i]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// popPC removes the heap head; the caller has already read it.
func popPC(h []compEv) []compEv {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && pcLess(&h[c+1], &h[c]) {
			c++
		}
		if pcLess(&h[i], &h[c]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}

// repWinner returns whichever of replay candidates x and y comes first
// under the event (time, kind, seq) key.
func repWinner(candT []float64, candA []int64, x, y int32) int32 {
	if candT[y] < candT[x] || (candT[y] == candT[x] && candA[y] < candA[x]) {
		return y
	}
	return x
}

// runReplay finishes a closed-loop run after its first window stall:
// processor p's injection attempt in round r found the window full, so
// from here on the injection times leave the grid and the lockstep walk
// no longer matches the event order.
//
// The replay is not the event engine, and it keeps no global event
// queue either. Only two event kinds still carry information —
// injection attempts (evInject) and completions (evComplete) — and of
// those, only injects and the completions that unblock a window-stalled
// processor have globally ordered effects. Each processor therefore
// exposes at most one candidate: its pending inject (kind 0, or 1 for a
// "late" re-inject, see below), or, when blocked, the head of its
// private (time, seq) completion heap (kind 4). The main loop takes the
// (time, kind, seq)-minimum candidate from the root of a tournament tree
// (rTree) and, after handling it, replays only the changed candidate's
// leaf-to-root path, so each event costs O(log p). That reproduces the
// event queue's pop order exactly: a non-unblocking completion only
// shrinks its own processor's in-flight window, which nothing reads
// until that processor's next injection attempt — so it is drained
// lazily, from the completions strictly earlier than the attempt
// (same-instant completions pop after the inject in the event queue,
// evInject < evComplete).
//
// Better still, an attempt's blocked/clear outcome is known the moment
// its candidate is created: a processor's private heap is already
// complete below its next inject time (only the processor's own injects
// add completions, and it has none pending), so the drain and the
// window check run at creation, and an attempt that will block never
// becomes a loop event — its candidate is directly the head completion
// that will clear it, with one seq burned for the inject event the
// event engine still pushes. The in-flight count is the private heap's
// length (every inject pushes one completion, every drain or unblock
// pops one), so the replay maintains no separate window counter.
//
// Bank arrivals need no events of their own: injects are processed in
// time order and NetDelay is constant, so applying each arrival at
// injection keeps every bank's service order identical to the event
// queue's, and bank-done times are the service chain the arenas already
// model. Window bookkeeping is exact: a blocked attempt consumes no
// seq, the completion that unblocks a processor consumes one fresh seq
// for the re-inject at max(completion time, nextIssueAt), and same-time
// completions unblock in seq order across processors — observable,
// because each re-inject's seq orders its bank arrival against
// simultaneous ones. A kind-1 ("late") re-inject is one scheduled at its
// own completion's instant with NetDelay 0: the event engine pushes it
// after the same-time bank-done events already popped (evBankDone <
// evComplete), so its arrival must see those dequeues applied — but it
// still fires before the remaining same-time completions (evInject <
// evComplete), hence kind 1 sorting between 0 and 4. That order is
// exact because a late inject's seq is fresher than any same-time
// kind-0 inject's, so the seq tie-break already placed it last among
// them.
func (b *lockstep) runReplay(ctx context.Context, pt core.Pattern, r, p int) error {
	np := len(pt.PerProc)
	next, nia := b.rNext, b.rNIA
	candT, candA := b.rCandT, b.rCandA
	G, nd := b.g, b.nd
	win := int(b.win)
	t0 := b.injT
	none := math.Inf(1)

	// Split the pending completion heap into the private per-proc
	// (time, seq) heaps first: candidate creation below drains them.
	for q := 0; q < np; q++ {
		b.rComp[q] = b.rComp[q][:0]
	}
	for _, c := range b.comp {
		b.rComp[c.proc] = pushPC(b.rComp[c.proc], c)
	}

	// Reconstruct per-processor state at the stall instant. Processors
	// before p already injected this round (their pending inject sits at
	// the next grid point); p's attempt just blocked (its pending inject
	// event is consumed), so its candidate is its earliest pending
	// completion; processors after p still hold this round's inject at
	// t0, with seqs assigned during round r-1.
	for q := 0; q < np; q++ {
		lq := len(pt.PerProc[q])
		var nq int
		if q < p {
			nq = r + 1
			nia[q] = t0 + G
		} else {
			nq = r
			nia[q] = t0
		}
		if nq > lq {
			nq = lq
		}
		next[q] = int32(nq)
		h := b.rComp[q]
		switch {
		case q == p:
			candT[q] = h[0].t
			candA[q] = repAuxComp | int64(h[0].seq)
		case nq < lq:
			ti := nia[q]
			for len(h) > 0 && h[0].t < ti {
				h = popPC(h)
			}
			b.rComp[q] = h
			if len(h) >= win {
				candT[q] = h[0].t
				candA[q] = repAuxComp | int64(h[0].seq)
			} else {
				candT[q] = ti
				candA[q] = int64(b.injSeq[q])
			}
		default:
			candT[q] = none
			candA[q] = repAuxNone
		}
	}

	// Build the tournament's internal nodes bottom-up. Ties only arise
	// between idle sentinels (live keys are distinct: every event has
	// its own seq), so either child may win them.
	tree := b.rTree
	leaves := len(tree) / 2
	for i := leaves - 1; i > 0; i-- {
		tree[i] = repWinner(candT, candA, tree[2*i], tree[2*i+1])
	}

	seqc := b.seq
	sincePoll := 0
	for {
		q := int(tree[1])
		bt, ba := candT[q], candA[q]
		if bt == none {
			break // every processor is idle
		}
		sincePoll++
		if sincePoll >= batchPollRequests {
			sincePoll = 0
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: batch cancelled during replay: %w", err)
			}
		}
		if ba < repAuxComp {
			// Injection. The window was checked and the heap drained when
			// this candidate was created, so the inject just serves.
			addrs := pt.PerProc[q]
			addr := addrs[next[q]]
			seqc++
			reqSeq := seqc
			next[q]++
			nia[q] = bt + G
			a := bt + nd
			done := b.serveArrival(bankOf(b.mk, b.mkArg, b.bm, addr), a, addr, reqSeq, ba >= repAuxLate)
			ct := done + nd
			if ct > b.lastDone {
				b.lastDone = ct
			}
			h := pushPC(b.rComp[q], compEv{t: ct, seq: reqSeq, proc: int32(q)})
			if int(next[q]) < len(addrs) {
				// Resolve the next attempt now: the heap is complete below
				// its time, so drain, burn the attempt's seq, and expose
				// either the inject or, if the window is full, the head
				// completion that will clear it (stable until it pops — a
				// blocked processor injects nothing, and nothing else
				// pushes into its heap).
				ti := nia[q]
				for len(h) > 0 && h[0].t < ti {
					h = popPC(h)
				}
				seqc++
				if len(h) >= win {
					candT[q] = h[0].t
					candA[q] = repAuxComp | int64(h[0].seq)
				} else {
					candT[q] = ti
					candA[q] = int64(seqc)
				}
			} else {
				candT[q] = none
				candA[q] = repAuxNone
			}
			b.rComp[q] = h
		} else {
			// Head completion of a blocked processor: unblock and
			// schedule the re-inject with a fresh seq. It cannot block —
			// the window just opened and only q's own injects refill it —
			// so drain below its time and expose it directly.
			ct := bt
			h := popPC(b.rComp[q])
			t2 := ct
			if nia[q] > t2 {
				t2 = nia[q]
			}
			for len(h) > 0 && h[0].t < t2 {
				h = popPC(h)
			}
			b.rComp[q] = h
			var aux int64
			if t2 == ct && nd == 0 {
				aux = repAuxLate
			}
			seqc++
			candT[q] = t2
			candA[q] = aux | int64(seqc)
		}
		// Only q's candidate changed: replay its leaf-to-root path.
		for i := (leaves + q) >> 1; i > 0; i >>= 1 {
			tree[i] = repWinner(candT, candA, tree[2*i], tree[2*i+1])
		}
	}
	return nil
}

// result assembles the Result from the arenas. Deferred accumulations
// (DRAM BankBusy, Regulated ThrottleStallCycles) are sorted into the
// event order here and summed left to right, so their partial-sum
// rounding matches the event engine bit for bit.
func (b *lockstep) result(n int) Result {
	res := Result{
		Cycles:       b.lastDone,
		Requests:     n,
		BankServices: n,
		MaxBankQueue: int(b.maxQ),
		BankBusy:     b.busyAcc,
	}
	var deferred float64
	if b.cls != clFIFO {
		slices.SortFunc(b.busyEvs, cmpBusyEv)
		for _, e := range b.busyEvs {
			deferred += e.v
		}
	}
	switch b.cls {
	case clDRAM:
		res.RowHits = int(b.rowHits)
		res.RowConflicts = int(b.rowConf)
		res.BankBusy = deferred
	case clReg:
		res.ThrottleStalls = int(b.thrStalls)
		res.ThrottleStallCycles = deferred
	}
	for _, c := range b.serve {
		res.MaxBankServed = max(res.MaxBankServed, int(c))
	}
	return res
}
