package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"dxbsp/internal/core"
)

// BatchEngine advances K simulation configurations ("lanes") over one
// shared access pattern in lockstep. Sweeps are fans of near-identical
// points — the same request stream under varying d, x, g, NetDelay or
// bank map — so the pattern walk, address decode and per-round control
// flow can be paid once and amortized across every lane instead of once
// per config (DESIGN.md §14).
//
// Lanes that satisfy BatchEligible run on the lockstep fast path over
// structure-of-arrays state: per-lane clocks and counters in [K]-dense
// slices, per-(lane,bank) service state in one lane-major arena indexed
// by off[lane]+bank. The fast path replays exactly the floating-point
// operations of the scalar event loop in exactly the scalar order (see
// the correctness argument on runFast and DESIGN.md §16), so every
// lane's Result is byte-identical to Engine.Run of that lane alone —
// pinned by the golden 128-config diff, TestBatchMatchesScalar and
// FuzzBatchVsScalar.
//
// The eligible regime covers the open- and closed-loop (Window > 0)
// FIFO bank, the Regulated bank, and row-buffer DRAM without bank
// groups. A closed-loop lane advances in lockstep while no processor is
// window-blocked; at the first stall the lane alone detaches into a
// per-lane replay of the scalar engine's remaining events (runReplay) —
// it never falls back to the pooled scalar engine. Structurally
// ineligible lanes (combining, sections, probes, GPUShared, HS93 row
// caches, grouped or multi-row DRAM) run sequentially on one retained
// scalar engine inside the batch — still one call, still
// byte-identical, just without the lockstep speedup.
//
// RunContext runs every solo eligible config here, as a one-lane batch
// (runSolo), so the multi-lane Run has only test and benchmark callers.
//
// Like Engine, a BatchEngine is single-run at a time and retains every
// arena across runs, so warm batches allocate nothing
// (TestBatchEngineReuseZeroAllocs pins it).
type BatchEngine struct {
	// Per-lane parameter SoA, all len K. fast marks lockstep lanes.
	cfgs []Config
	fast []bool

	g, nd, d []float64 // issue gap, one-way net delay, service time
	injT     []float64 // current round's injection time (accumulated += g)
	lastDone []float64 // completion clock (max response arrival)
	busyAcc  []float64 // total bank busy time (+= service per service)
	maxQ     []int32   // high-water queue depth over all banks
	off      []int32   // lane's base index into the bank arenas

	// Bank-map dispatch, resolved per lane at reset: a tag plus argument
	// for the two interleave families, with the boxed interface retained
	// only for custom maps (mapGeneric).
	mk    []mapKind
	mkArg []uint64
	bms   []core.BankMap

	// Lane-major per-(lane,bank) arenas, sized sum of fast lanes' banks.
	// lastFin[i] is the finish time of the latest request at that bank;
	// frontStart[i]/qn[i] model a constant-service FIFO queue without
	// storing it (see runFast); serve[i] counts services for
	// MaxBankServed.
	lastFin    []float64
	frontStart []float64
	qn         []int32
	serve      []int32

	// Per-lane discipline/loop classification (fast lanes only).
	cls   []laneClass
	win   []int32 // Window (0 = open loop)
	plain []bool  // open-loop FIFO: the original PR 8 inline path

	// Per-lane discipline parameters (fast lanes only; meaningful per
	// class). rowShiftL is the DRAM row shift; hitD/missD the DRAM
	// service times; regW/regB the Regulated window and budget.
	rowShiftL []uint8
	hitD      []float64
	missD     []float64
	regW      []float64
	regB      []int32

	// Per-lane request-sequence counters and result tallies for the
	// non-plain classes. seqCtr replays the scalar engine's nextSeq
	// stream exactly (blocked injection attempts consume none, every
	// schedule consumes one); the tallies are ints, so accumulation
	// order is free.
	seqCtr    []int32
	rowHitsL  []int32
	rowConfL  []int32
	thrStalls []int32

	// Per-(lane,bank) arena for the variable-service classes (DRAM,
	// Regulated), lane-major at vOff[lane] (-1 for FIFO lanes): the open
	// row tag, the regulation window accounting, the seq of the bank's
	// latest request (ordering key for deferred accumulation), and a
	// ring of waiter dequeue times replacing the constant-d frontStart
	// arithmetic (a waiter leaves the queue exactly when its predecessor
	// finishes, which is the value of lastFin at its enqueue).
	vOff     []int32
	rowTag   []uint64
	rowHas   []bool
	regEpoch []int64
	regUsed  []int32
	lastSeq  []int32
	ringBuf  [][]float64 // power-of-two rings, grown on demand, retained
	ringHead []int32
	ringN    []int32

	// Per-(lane,proc) arena for closed-loop lanes, lane-major at
	// wOff[lane] (-1 for open-loop lanes): requests in flight per
	// processor and the seq of the processor's pending inject event.
	wOff   []int32
	outst  []int32
	injSeq []int32

	// comp[lane] is a closed-loop lane's pending-completion min-heap
	// (ordered by time): a completion strictly before the next
	// injection grid point has been processed by the scalar engine
	// before that inject, so it drains outst at round start. busyEvs
	// [lane] collects float accumulations whose scalar order differs
	// from arrival order (DRAM BankBusy, Regulated ThrottleStallCycles);
	// they are sorted by scalar event key and summed at finalize.
	comp    [][]compEv
	busyEvs [][]busyEv

	// active marks lanes still in lockstep; a closed-loop lane that
	// window-stalls replays to completion and deactivates. runLanes is
	// the compactable working copy of laneIdx.
	active   []bool
	runLanes []int32

	// Replay scratch, sized to the pattern's processor count. Shared by
	// all detaching lanes: a detach replays to completion before
	// lockstep resumes. The replay keeps no global event queue — each
	// processor exposes at most one actionable candidate (its pending
	// injection attempt, or, when blocked, the head of its private
	// completion heap rComp[q]) and a tournament tree over the candidates
	// yields the scalar-order minimum (see runReplay).
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

	laneIdx  []int32 // fast lanes in order, rebuilt per reset
	allPlain bool    // every fast lane is open-loop FIFO

	beSorter busyEvSorter

	// Per-lane boxed-default-BankMap caches, mirroring Engine.defMap:
	// re-boxing the default interleave map every reset would cost one
	// allocation per lane per batch.
	defMaps []defaultMap

	results []Result

	// solo is the retained one-lane config slice RunContext's routed
	// runs pass to reset, so a warm solo run allocates nothing.
	solo [1]Config

	// scalar runs the non-fast lanes; retained so their arenas pool too.
	scalar Engine
}

// laneClass is a fast lane's service-discipline class, the per-arrival
// dispatch tag of the lockstep loop.
type laneClass uint8

const (
	lcFIFO laneClass = iota // constant-d FIFO service
	lcDRAM                  // single open row per bank, no bank groups
	lcReg                   // bandwidth-regulated bank
)

// compEv is one pending closed-loop completion: the response for request
// seq (issued by proc) arrives back at its processor at time t.
type compEv struct {
	t         float64
	seq, proc int32
}

// busyEv is one deferred float accumulation: value v added to a Result
// accumulator during the scalar event with time t and packed
// (kind, seq) key.
type busyEv struct {
	t   float64
	key uint64
	v   float64
}

type busyEvSorter struct{ s []busyEv }

func (b *busyEvSorter) Len() int      { return len(b.s) }
func (b *busyEvSorter) Swap(i, j int) { b.s[i], b.s[j] = b.s[j], b.s[i] }
func (b *busyEvSorter) Less(i, j int) bool {
	if b.s[i].t != b.s[j].t {
		return b.s[i].t < b.s[j].t
	}
	return b.s[i].key < b.s[j].key
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

// BatchEligible reports whether cfg takes the lockstep fast path inside
// a BatchEngine: open- or closed-loop FIFO, Regulated, or ungrouped
// single-row DRAM, with no combining, no section bottleneck and no
// probe. It is RunContext's routing rule: eligible configs run on the
// one-lane lockstep walk, the rest on the event engine. Ineligible
// configs still run correctly in a batch (on the embedded scalar
// engine), they just don't share the lockstep pass. Equivalent to
// BatchFallbackReason(cfg) == "".
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
		// Fully eligible: the window accounting is per-(lane,bank) state.
	default:
		return "gpu-shared"
	}
	return ""
}

// NewBatchEngine returns an empty BatchEngine. The first Run sizes its
// arenas; later runs reuse them whenever the shape still fits.
func NewBatchEngine() *BatchEngine { return &BatchEngine{} }

// batchPool recycles BatchEngines exactly as enginePool recycles scalar
// engines: parked released, so a pooled batch engine pins only its own
// arenas.
var batchPool = sync.Pool{New: func() any { return new(BatchEngine) }}

// AcquireBatchEngine borrows a BatchEngine from the package pool. Pair
// with ReleaseBatchEngine.
func AcquireBatchEngine() *BatchEngine {
	return batchPool.Get().(*BatchEngine)
}

// ReleaseBatchEngine drops the engine's borrowed references (configs,
// bank maps, last results) and parks it. The engine — and the results
// slice its last Run returned — must not be used after release.
func ReleaseBatchEngine(b *BatchEngine) {
	b.release()
	batchPool.Put(b)
}

func (b *BatchEngine) release() {
	for i := range b.cfgs {
		b.cfgs[i] = Config{}
	}
	for i := range b.bms {
		b.bms[i] = nil
	}
	b.scalar.eng.release()
}

// RunBatch simulates pt under every config in cfgs on a pooled
// BatchEngine and returns one Result per lane, in lane order. The
// returned slice is freshly allocated (safe to retain); callers running
// many batches from one goroutine can hold an engine via
// AcquireBatchEngine and use BatchEngine.Run to avoid the copy.
func RunBatch(ctx context.Context, cfgs []Config, pt core.Pattern) ([]Result, error) {
	b := AcquireBatchEngine()
	res, err := b.Run(ctx, cfgs, pt)
	if err == nil {
		res = append([]Result(nil), res...)
	}
	ReleaseBatchEngine(b)
	return res, err
}

// Run simulates one superstep of pt under every config in cfgs and
// returns one Result per lane, in lane order. Each lane's Result is
// byte-identical to Engine.Run of that lane alone. Validation is
// all-or-nothing: any invalid lane fails the whole batch before any lane
// simulates, with the error naming the lane. The returned slice is owned
// by the engine and valid until the next Run or release.
func (b *BatchEngine) Run(ctx context.Context, cfgs []Config, pt core.Pattern) ([]Result, error) {
	if i, err := b.reset(cfgs, pt); err != nil {
		return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
	}
	return b.run(ctx, pt)
}

// runSolo simulates pt under the single config cfg as a one-lane batch:
// RunContext's path for every solo lockstep-eligible config. Its
// errors are Engine.Run's, without the lane prefix a batch adds.
func (b *BatchEngine) runSolo(ctx context.Context, cfg Config, pt core.Pattern) (Result, error) {
	b.solo[0] = cfg
	_, err := b.reset(b.solo[:], pt)
	b.solo[0] = Config{}
	if err != nil {
		return Result{}, err
	}
	res, err := b.run(ctx, pt)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// run simulates the lanes reset armed.
func (b *BatchEngine) run(ctx context.Context, pt core.Pattern) ([]Result, error) {
	// Non-fast lanes run first on the embedded scalar engine; lane order
	// in the results is preserved regardless of execution order.
	for i := range b.cfgs {
		if b.fast[i] {
			continue
		}
		res, err := b.scalar.Run(ctx, b.cfgs[i], pt)
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		b.results[i] = res
	}
	if err := b.runFast(ctx, pt); err != nil {
		return nil, err
	}
	return b.results, nil
}

// reset validates every lane and re-arms the SoA state, reusing retained
// storage. It mirrors Engine.Run's validation lane by lane and returns
// the first invalid lane's index with its unprefixed error.
func (b *BatchEngine) reset(cfgs []Config, pt core.Pattern) (int, error) {
	k := len(cfgs)
	np := pt.Procs()
	b.cfgs = growSlice(b.cfgs, k)
	b.fast = growSlice(b.fast, k)
	b.g = growSlice(b.g, k)
	b.nd = growSlice(b.nd, k)
	b.d = growSlice(b.d, k)
	b.injT = growSlice(b.injT, k)
	b.lastDone = growSlice(b.lastDone, k)
	b.busyAcc = growSlice(b.busyAcc, k)
	b.maxQ = growSlice(b.maxQ, k)
	b.off = growSlice(b.off, k)
	b.mk = growSlice(b.mk, k)
	b.mkArg = growSlice(b.mkArg, k)
	b.bms = growSlice(b.bms, k)
	b.cls = growSlice(b.cls, k)
	b.win = growSlice(b.win, k)
	b.plain = growSlice(b.plain, k)
	b.rowShiftL = growSlice(b.rowShiftL, k)
	b.hitD = growSlice(b.hitD, k)
	b.missD = growSlice(b.missD, k)
	b.regW = growSlice(b.regW, k)
	b.regB = growSlice(b.regB, k)
	b.seqCtr = growSlice(b.seqCtr, k)
	b.rowHitsL = growSlice(b.rowHitsL, k)
	b.rowConfL = growSlice(b.rowConfL, k)
	b.thrStalls = growSlice(b.thrStalls, k)
	b.vOff = growSlice(b.vOff, k)
	b.wOff = growSlice(b.wOff, k)
	b.active = growSlice(b.active, k)
	b.comp = growNested(b.comp, k)
	b.busyEvs = growNested(b.busyEvs, k)
	b.results = growSlice(b.results, k)
	b.laneIdx = b.laneIdx[:0]
	if len(b.defMaps) < k {
		b.defMaps = make([]defaultMap, k)
	}

	// nonEmpty replays the scalar reset's initial injection scheduling:
	// one evInject seq per processor with a non-empty stream, assigned
	// in processor order.
	nonEmpty := int32(0)
	for _, addrs := range pt.PerProc {
		if len(addrs) > 0 {
			nonEmpty++
		}
	}

	total, vTotal, wTotal := 0, 0, 0
	b.allPlain = true
	for i, cfg := range cfgs {
		cfg, err := prepare(cfg, pt, &b.defMaps[i])
		if err != nil {
			return i, err
		}
		b.cfgs[i] = cfg
		b.fast[i] = BatchEligible(cfg)
		b.results[i] = Result{}
		if !b.fast[i] {
			continue
		}
		b.laneIdx = append(b.laneIdx, int32(i))
		b.g[i] = cfg.Machine.G
		b.nd[i] = cfg.NetDelay
		b.d[i] = cfg.Machine.D
		b.injT[i] = 0
		b.lastDone[i] = 0
		b.busyAcc[i] = 0
		b.maxQ[i] = 0
		b.off[i] = int32(total)
		b.mk[i], b.mkArg[i] = resolveMap(cfg.BankMap)
		b.bms[i] = cfg.BankMap
		total += cfg.Machine.Banks

		b.win[i] = int32(cfg.Window)
		switch cfg.Bank.Discipline {
		case DRAM:
			b.cls[i] = lcDRAM
			b.rowShiftL[i] = uint8(rowShiftOf(cfg.Bank.RowWords))
			b.hitD[i] = cfg.Bank.HitDelay
			b.missD[i] = cfg.Bank.MissDelay
		case Regulated:
			b.cls[i] = lcReg
			b.regW[i] = cfg.Bank.RegWindow
			b.regB[i] = int32(cfg.Bank.RegBudget)
		default:
			b.cls[i] = lcFIFO
		}
		b.plain[i] = b.cls[i] == lcFIFO && cfg.Window == 0
		b.active[i] = true
		b.seqCtr[i] = 0
		b.rowHitsL[i] = 0
		b.rowConfL[i] = 0
		b.thrStalls[i] = 0
		if b.cls[i] != lcFIFO {
			b.vOff[i] = int32(vTotal)
			vTotal += cfg.Machine.Banks
			b.busyEvs[i] = b.busyEvs[i][:0]
		} else {
			b.vOff[i] = -1
		}
		if cfg.Window > 0 {
			b.wOff[i] = int32(wTotal)
			wTotal += np
			b.comp[i] = b.comp[i][:0]
		} else {
			b.wOff[i] = -1
		}
		if !b.plain[i] {
			b.allPlain = false
			b.seqCtr[i] = nonEmpty
		}
	}

	b.lastFin = growSlice(b.lastFin, total)
	b.frontStart = growSlice(b.frontStart, total)
	b.qn = growSlice(b.qn, total)
	b.serve = growSlice(b.serve, total)
	for i := range b.lastFin {
		b.lastFin[i] = -1 // any arrival time is >= 0, so -1 reads as idle
		b.frontStart[i] = 0
		b.qn[i] = 0
		b.serve[i] = 0
	}

	b.rowTag = growSlice(b.rowTag, vTotal)
	b.rowHas = growSlice(b.rowHas, vTotal)
	b.regEpoch = growSlice(b.regEpoch, vTotal)
	b.regUsed = growSlice(b.regUsed, vTotal)
	b.lastSeq = growSlice(b.lastSeq, vTotal)
	b.ringBuf = growNested(b.ringBuf, vTotal)
	b.ringHead = growSlice(b.ringHead, vTotal)
	b.ringN = growSlice(b.ringN, vTotal)
	for i := 0; i < vTotal; i++ {
		b.rowTag[i] = 0
		b.rowHas[i] = false
		b.regEpoch[i] = 0
		b.regUsed[i] = 0
		b.lastSeq[i] = 0
		b.ringHead[i] = 0
		b.ringN[i] = 0
	}

	b.outst = growSlice(b.outst, wTotal)
	b.injSeq = growSlice(b.injSeq, wTotal)
	for i := 0; i < wTotal; i++ {
		b.outst[i] = 0
		b.injSeq[i] = 0
	}

	// Closed-loop lanes replay the scalar reset's seq assignment for the
	// initial per-processor inject events.
	for _, li := range b.laneIdx {
		if b.win[li] == 0 {
			continue
		}
		wb := int(b.wOff[li])
		ctr := int32(0)
		for q, addrs := range pt.PerProc {
			if len(addrs) > 0 {
				ctr++
				b.injSeq[wb+q] = ctr
			}
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
	return 0, nil
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
// the grown inner buffers over so warm batches never re-allocate them.
func growNested[T any](s [][]T, n int) [][]T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([][]T, n)
	copy(ns, s[:cap(s)])
	return ns
}

// batchPollRequests is how many (lane, request) services pass between
// context polls in runFast — the batch analogue of cancelCheckEvents.
const batchPollRequests = 4096

// runFast executes every fast lane in lockstep over the shared pattern.
//
// Correctness. In the open-loop FIFO regime the scalar event loop is
// fully determined:
//
//   - Processor p injects its r-th request at t_r, with t_0 = 0 and
//     t_{r+1} = t_r + G (inject accumulates nextIssueAt = now + G), so
//     injT replays the identical float sum. Within a round, injects fire
//     in processor order (their seqs were assigned in that order the
//     round before), so request seqs ascend (round, proc)-lexically.
//   - Every request arrives at its bank at a = t_r + NetDelay. Arrivals
//     at one bank are ordered by (time, seq); both orders agree with
//     (round, proc), so walking round-major then proc-major visits each
//     bank's arrivals in exactly the scalar service order.
//   - A bank is busy at arrival a iff the previous request's finish
//     f >= a: bank-done at time == a has event kind evBankDone >
//     evBankArrive, so the done fires after the arrival and the arrival
//     queues. A queued request starts when its predecessor finishes, so
//     finishes chain f_i = f_{i-1} + d — the same float op the scalar
//     engine performs — and an idle bank serves on arrival, f = a + d.
//   - Queue depth: the scalar ring's maxQ counts waiters excluding the
//     one in service. Rather than store the queue, we keep the oldest
//     waiter's start time (frontStart) and the waiter count (qn): a
//     waiter has left the queue by time a iff its start s < a (a start
//     at s == a comes from a done at s, kind evBankDone, which fires
//     after the arrival), and successive waiters' starts differ by
//     exactly += d, so popping replays the exact floats the scalar
//     engine computed.
//   - Responses only advance the completion clock (open loop collapses
//     evComplete): lastDone = max over requests of f + NetDelay, and
//     BankBusy accumulates += d per service — order-independent here
//     because d is constant within a lane.
//
// The widened regime (DESIGN.md §16) keeps the same skeleton:
//
//   - Closed loop (Window > 0): while no processor of the lane is
//     window-blocked, the closed-loop scalar run performs exactly the
//     open-loop float ops — injections stay on the shared grid and
//     completions only drain the window. A completion strictly earlier
//     than an injection attempt has been processed before it (kind
//     evInject < evComplete breaks the time tie the other way), so
//     outst is drained from the pending-completion heap at each round
//     start with strict <. The first attempt that would block is
//     exactly where the scalar engine diverges from the grid, so the
//     lane detaches there and runReplay finishes it event-exactly.
//   - DRAM/Regulated service times vary per request, so the constant-d
//     frontStart/qn drain is replaced by a per-(lane,bank) ring of
//     waiter dequeue times (a waiter dequeues exactly when its
//     predecessor finishes — the value of lastFin at its enqueue), and
//     float accumulators whose scalar order is the global service-start
//     event order rather than arrival order (DRAM BankBusy, Regulated
//     ThrottleStallCycles) are deferred: recorded with their scalar
//     (time, kind, seq) event key, sorted, and summed at finalize so
//     the partial-sum rounding is bit-identical.
func (b *BatchEngine) runFast(ctx context.Context, pt core.Pattern) error {
	if len(b.laneIdx) == 0 {
		return nil
	}
	maxLen := 0
	for _, addrs := range pt.PerProc {
		if len(addrs) > maxLen {
			maxLen = len(addrs)
		}
	}
	var err error
	if b.allPlain {
		err = b.runPlain(ctx, pt, maxLen)
	} else {
		err = b.runMixed(ctx, pt, maxLen)
	}
	if err != nil {
		return err
	}
	b.finalize(pt)
	return nil
}

// runPlain is the lockstep loop for batches whose fast lanes are all
// open-loop FIFO: no per-lane class dispatch, no stall detection and no
// seq bookkeeping on the hot path. runMixed computes the same results, but
// sending these lanes through it measured slower (10 alternating pairs
// on a 2-vCPU Xeon: BenchmarkSimScatter64K +15%, BenchmarkBatchExpansion
// +5%), so the split stays.
func (b *BatchEngine) runPlain(ctx context.Context, pt core.Pattern, maxLen int) error {
	lanes := b.laneIdx
	processed := 0
	sincePoll := batchPollRequests // poll before the first round too
	for r := 0; r < maxLen; r++ {
		if sincePoll >= batchPollRequests {
			sincePoll = 0
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: batch cancelled after %d lane-requests: %w", processed, err)
			}
		}
		for _, addrs := range pt.PerProc {
			if r >= len(addrs) {
				continue
			}
			addr := addrs[r]
			for _, li := range lanes {
				a := b.injT[li] + b.nd[li]
				bank := bankOf(b.mk[li], b.mkArg[li], b.bms[li], addr)
				idx := int(b.off[li]) + bank
				dl := b.d[li]
				var done float64
				if f := b.lastFin[idx]; f >= a {
					// Busy: drain waiters already started before a, then queue.
					fs, n := b.frontStart[idx], b.qn[idx]
					for n > 0 && fs < a {
						fs += dl
						n--
					}
					n++
					if n == 1 {
						fs = f
					}
					b.frontStart[idx] = fs
					b.qn[idx] = n
					if n > b.maxQ[li] {
						b.maxQ[li] = n
					}
					done = f + dl
				} else {
					b.qn[idx] = 0
					done = a + dl
				}
				b.lastFin[idx] = done
				b.serve[idx]++
				b.busyAcc[li] += dl
				if t := done + b.nd[li]; t > b.lastDone[li] {
					b.lastDone[li] = t
				}
			}
			processed += len(lanes)
			sincePoll += len(lanes)
		}
		for _, li := range lanes {
			b.injT[li] += b.g[li]
		}
	}
	return nil
}

// runMixed is the lockstep loop with per-lane class dispatch: open-loop
// FIFO lanes take the plain block, DRAM/Regulated lanes the
// variable-service block, and closed-loop lanes additionally track the
// in-flight window and detach into runReplay at their first stall.
func (b *BatchEngine) runMixed(ctx context.Context, pt core.Pattern, maxLen int) error {
	b.runLanes = append(b.runLanes[:0], b.laneIdx...)
	lanes := b.runLanes
	processed := 0
	sincePoll := batchPollRequests // poll before the first round too
	for r := 0; r < maxLen && len(lanes) > 0; r++ {
		if sincePoll >= batchPollRequests {
			sincePoll = 0
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: batch cancelled after %d lane-requests: %w", processed, err)
			}
		}
		// A completion strictly before this round's injection grid point
		// precedes every one of the round's inject events in the scalar
		// order, so it has already released its window slot.
		for _, li := range lanes {
			if b.win[li] > 0 && len(b.comp[li]) > 0 {
				b.drainComp(li, b.injT[li])
			}
		}
		detached := false
		for p, addrs := range pt.PerProc {
			if r >= len(addrs) {
				continue
			}
			addr := addrs[r]
			for _, li := range lanes {
				if !b.active[li] {
					continue
				}
				if b.plain[li] {
					a := b.injT[li] + b.nd[li]
					bank := bankOf(b.mk[li], b.mkArg[li], b.bms[li], addr)
					idx := int(b.off[li]) + bank
					dl := b.d[li]
					var done float64
					if f := b.lastFin[idx]; f >= a {
						fs, n := b.frontStart[idx], b.qn[idx]
						for n > 0 && fs < a {
							fs += dl
							n--
						}
						n++
						if n == 1 {
							fs = f
						}
						b.frontStart[idx] = fs
						b.qn[idx] = n
						if n > b.maxQ[li] {
							b.maxQ[li] = n
						}
						done = f + dl
					} else {
						b.qn[idx] = 0
						done = a + dl
					}
					b.lastFin[idx] = done
					b.serve[idx]++
					b.busyAcc[li] += dl
					if t := done + b.nd[li]; t > b.lastDone[li] {
						b.lastDone[li] = t
					}
					continue
				}

				wb := -1
				if b.win[li] > 0 {
					wb = int(b.wOff[li])
					if b.outst[wb+p] >= b.win[li] {
						// Window stall: exactly where the scalar engine leaves
						// the shared injection grid. Replay this lane alone to
						// completion; the blocked attempt consumes no seq.
						if err := b.runReplay(ctx, li, pt, r, p); err != nil {
							return err
						}
						b.active[li] = false
						detached = true
						continue
					}
				}
				reqSeq := b.seqCtr[li] + 1
				ctr := reqSeq
				if r+1 < len(addrs) {
					ctr++
					if wb >= 0 {
						b.injSeq[wb+p] = ctr
					}
				}
				b.seqCtr[li] = ctr
				a := b.injT[li] + b.nd[li]
				bank := bankOf(b.mk[li], b.mkArg[li], b.bms[li], addr)
				done := b.serveLane(li, bank, a, addr, reqSeq, false)
				t := done + b.nd[li]
				if t > b.lastDone[li] {
					b.lastDone[li] = t
				}
				if wb >= 0 {
					b.outst[wb+p]++
					b.pushComp(li, compEv{t: t, seq: reqSeq, proc: int32(p)})
				}
			}
			processed += len(lanes)
			sincePoll += len(lanes)
		}
		for _, li := range lanes {
			if b.active[li] {
				b.injT[li] += b.g[li]
			}
		}
		if detached {
			kept := lanes[:0]
			for _, li := range lanes {
				if b.active[li] {
					kept = append(kept, li)
				}
			}
			lanes = kept
		}
	}
	return nil
}

// serveLane services one arrival for a non-plain lane: arrival time a,
// request sequence reqSeq, returning the service finish time. It
// replays the scalar startBank for the lane's class, including the
// queue bookkeeping.
//
// late marks an arrival the scalar engine processes after the bank-done
// events at its own timestamp have already fired: a replay re-inject at
// its completion's instant with NetDelay 0 (repEv kind 1). For such an
// arrival, a service finishing exactly at a has completed (the bank may
// be idle at f == a) and a waiter whose service starts exactly at a has
// left the queue — so the busy test and the dequeue drains tighten from
// strict to inclusive comparisons against a.
func (b *BatchEngine) serveLane(li int32, bank int, a float64, addr uint64, reqSeq int32, late bool) float64 {
	idx := int(b.off[li]) + bank
	if b.cls[li] == lcFIFO {
		// Closed-loop FIFO: service is the constant d, so the open-loop
		// frontStart/qn arithmetic applies verbatim.
		dl := b.d[li]
		var done float64
		if f := b.lastFin[idx]; f > a || (f == a && !late) {
			fs, n := b.frontStart[idx], b.qn[idx]
			for n > 0 && (fs < a || (late && fs == a)) {
				fs += dl
				n--
			}
			n++
			if n == 1 {
				fs = f
			}
			b.frontStart[idx] = fs
			b.qn[idx] = n
			if n > b.maxQ[li] {
				b.maxQ[li] = n
			}
			done = f + dl
		} else {
			b.qn[idx] = 0
			done = a + dl
		}
		b.lastFin[idx] = done
		b.serve[idx]++
		b.busyAcc[li] += dl
		return done
	}

	// Variable-service classes (DRAM, Regulated). The scalar start event
	// for a queued request is its predecessor's bank-done (kind
	// evBankDone, the predecessor's seq); for an idle bank it is the
	// arrival itself (kind evBankArrive, own seq). That key orders the
	// deferred float accumulations.
	vi := int(b.vOff[li]) + bank
	f := b.lastFin[idx]
	var start float64
	var key uint64
	if f > a || (f == a && !late) {
		// Busy: waiters dequeue exactly when their predecessors finish,
		// so the ring of recorded finishes replays the queue.
		buf := b.ringBuf[vi]
		h, n := int(b.ringHead[vi]), int(b.ringN[vi])
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
			b.ringBuf[vi] = buf
		}
		buf[(h+n)&(len(buf)-1)] = f
		n++
		b.ringHead[vi] = int32(h)
		b.ringN[vi] = int32(n)
		if int32(n) > b.maxQ[li] {
			b.maxQ[li] = int32(n)
		}
		start = f
		key = 3<<32 | uint64(uint32(b.lastSeq[vi]))
	} else {
		b.ringHead[vi] = 0
		b.ringN[vi] = 0
		start = a
		key = 2<<32 | uint64(uint32(reqSeq))
	}

	var service float64
	if b.cls[li] == lcDRAM {
		row := addr >> uint(b.rowShiftL[li])
		if b.rowHas[vi] && b.rowTag[vi] == row {
			service = b.hitD[li]
			b.rowHitsL[li]++
		} else {
			b.rowTag[vi] = row
			b.rowHas[vi] = true
			service = b.missD[li]
			b.rowConfL[li]++
		}
		// DRAM services vary (hit vs miss), so BankBusy's partial sums
		// depend on the scalar accumulation order; defer to finalize.
		b.busyEvs[li] = append(b.busyEvs[li], busyEv{t: start, key: key, v: service})
	} else {
		rw := b.regW[li]
		ep := int64(start / rw)
		if ep > b.regEpoch[vi] {
			b.regEpoch[vi] = ep
			b.regUsed[vi] = 0
		}
		if b.regUsed[vi] >= b.regB[li] {
			// Budget exhausted: hold the bank until the next window opens.
			b.regEpoch[vi]++
			b.regUsed[vi] = 0
			ns := float64(b.regEpoch[vi]) * rw
			b.thrStalls[li]++
			b.busyEvs[li] = append(b.busyEvs[li], busyEv{t: start, key: key, v: ns - start})
			start = ns
		}
		b.regUsed[vi]++
		service = b.d[li]
		b.busyAcc[li] += service
	}
	done := start + service
	b.lastFin[idx] = done
	b.lastSeq[vi] = reqSeq
	b.serve[idx]++
	return done
}

// drainComp pops lane li's pending completions strictly earlier than t,
// releasing their processors' window slots. Completion responses update
// the completion clock at push time (max, order-independent), so the
// drain only touches outst.
func (b *BatchEngine) drainComp(li int32, t float64) {
	h := b.comp[li]
	wb := int(b.wOff[li])
	for len(h) > 0 && h[0].t < t {
		b.outst[wb+int(h[0].proc)]--
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
	b.comp[li] = h
}

// pushComp inserts a pending completion into lane li's min-heap.
func (b *BatchEngine) pushComp(li int32, e compEv) {
	h := append(b.comp[li], e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].t <= h[i].t {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	b.comp[li] = h
}

// Replay candidate aux keys: the scalar event kind packed above the
// request seq, so one int64 comparison resolves the (kind, seq)
// tie-break. Kind 0 is an injection attempt, 1 a late re-inject (see
// runReplay), 4 a completion — the scalar queue's evInject/evComplete
// tags. repAuxNone pairs with a +Inf candidate time to mark an idle
// processor; it compares greater than every live key.
const (
	repAuxLate = int64(1) << 32
	repAuxComp = int64(4) << 32
	repAuxNone = int64(math.MaxInt64)
)

// pcLess orders a processor's private replay completions by (time,
// seq) — the scalar queue's key restricted to one kind. Time alone is
// not enough: when two blocked processors hold same-time head
// completions, the smaller request seq unblocks first in the scalar
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
// under the scalar (time, kind, seq) key.
func repWinner(candT []float64, candA []int64, x, y int32) int32 {
	if candT[y] < candT[x] || (candT[y] == candT[x] && candA[y] < candA[x]) {
		return y
	}
	return x
}

// runReplay finishes lane li alone after its first window stall: the
// processor p's injection attempt in round r found the window full, so
// from here on the lane's injection times leave the shared grid and the
// lockstep walk no longer matches the scalar event order for it.
//
// The replay is not the pooled scalar engine, and it keeps no global
// event queue either. Only two scalar event kinds still carry
// information — injection attempts (evInject) and completions
// (evComplete) — and of those, only injects and the completions that
// unblock a window-stalled processor have globally ordered effects.
// Each processor therefore exposes at most one candidate: its pending
// inject (kind 0, or 1 for a "late" re-inject, see below), or, when
// blocked, the head of its private (time, seq) completion heap
// (kind 4). The main loop takes the (time, kind, seq)-minimum candidate
// from the root of a tournament tree (rTree) and, after handling it,
// replays only the changed candidate's leaf-to-root path, so each event
// costs O(log p). That reproduces the scalar queue's pop order
// exactly: a non-unblocking completion only shrinks its own processor's
// in-flight window, which nothing reads until that processor's next
// injection attempt — so it is drained lazily, from the completions
// strictly earlier than the attempt (same-instant completions pop after
// the inject in the scalar queue, evInject < evComplete).
//
// Better still, an attempt's blocked/clear outcome is known the moment
// its candidate is created: a processor's private heap is already
// complete below its next inject time (only the processor's own injects
// add completions, and it has none pending), so the drain and the
// window check run at creation, and an attempt that will block never
// becomes a loop event — its candidate is directly the head completion
// that will clear it, with one seq burned for the inject event the
// scalar engine still pushes. The in-flight count is the private heap's
// length (every inject pushes one completion, every drain or unblock
// pops one), so the replay maintains no separate window counter.
//
// Bank arrivals need no events of their own: injects are processed in
// time order and NetDelay is constant within the lane, so applying each
// arrival at injection keeps every bank's service order identical to
// the scalar queue's, and bank-done times are the service chain the
// arenas already model. Window bookkeeping is exact: a blocked attempt
// consumes no seq, the completion that unblocks a processor consumes
// one fresh seq for the re-inject at max(completion time, nextIssueAt),
// and same-time completions unblock in seq order across processors —
// observable, because each re-inject's seq orders its bank arrival
// against simultaneous ones. A kind-1 ("late") re-inject is one
// scheduled at its own completion's instant with NetDelay 0: the scalar
// engine pushes it after the same-time bank-done events already popped
// (evBankDone < evComplete), so its arrival must see those dequeues
// applied — but it still fires before the remaining same-time
// completions (evInject < evComplete), hence kind 1 sorting between 0
// and 4. That order is scalar-exact because a late inject's seq is
// fresher than any same-time kind-0 inject's, so the scalar's seq
// tie-break already placed it last among them.
func (b *BatchEngine) runReplay(ctx context.Context, li int32, pt core.Pattern, r, p int) error {
	np := len(pt.PerProc)
	next, nia := b.rNext, b.rNIA
	candT, candA := b.rCandT, b.rCandA
	wb := int(b.wOff[li])
	G := b.g[li]
	nd := b.nd[li]
	win := int(b.win[li])
	t0 := b.injT[li]
	none := math.Inf(1)

	// Split the lane's shared completion heap into the private per-proc
	// (time, seq) heaps first: candidate creation below drains them.
	for q := 0; q < np; q++ {
		b.rComp[q] = b.rComp[q][:0]
	}
	for _, c := range b.comp[li] {
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
				candA[q] = int64(b.injSeq[wb+q])
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

	seqc := b.seqCtr[li]
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
				return fmt.Errorf("sim: batch lane %d replay cancelled: %w", li, err)
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
			bank := bankOf(b.mk[li], b.mkArg[li], b.bms[li], addr)
			done := b.serveLane(li, bank, a, addr, reqSeq, ba >= repAuxLate)
			ct := done + nd
			if ct > b.lastDone[li] {
				b.lastDone[li] = ct
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
	b.seqCtr[li] = seqc
	return nil
}

// finalize assembles every fast lane's Result from the arenas. Deferred
// accumulations (DRAM BankBusy, Regulated ThrottleStallCycles) are
// sorted into the scalar event order here and summed left to right, so
// their partial-sum rounding matches the scalar engine bit for bit.
func (b *BatchEngine) finalize(pt core.Pattern) {
	n := pt.N()
	for _, li := range b.laneIdx {
		res := &b.results[li]
		res.Cycles = b.lastDone[li]
		res.Requests = n
		res.BankServices = n
		res.MaxBankQueue = int(b.maxQ[li])
		res.BankBusy = b.busyAcc[li]
		switch b.cls[li] {
		case lcDRAM:
			res.RowHits = int(b.rowHitsL[li])
			res.RowConflicts = int(b.rowConfL[li])
			b.beSorter.s = b.busyEvs[li]
			sort.Sort(&b.beSorter)
			var busy float64
			for _, e := range b.beSorter.s {
				busy += e.v
			}
			res.BankBusy = busy
			b.beSorter.s = nil
		case lcReg:
			res.ThrottleStalls = int(b.thrStalls[li])
			b.beSorter.s = b.busyEvs[li]
			sort.Sort(&b.beSorter)
			var stall float64
			for _, e := range b.beSorter.s {
				stall += e.v
			}
			res.ThrottleStallCycles = stall
			b.beSorter.s = nil
		}
		lo := int(b.off[li])
		hi := lo + b.cfgs[li].Machine.Banks
		for _, c := range b.serve[lo:hi] {
			if int(c) > res.MaxBankServed {
				res.MaxBankServed = int(c)
			}
		}
	}
}
