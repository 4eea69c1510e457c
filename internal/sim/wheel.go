package sim

import (
	"math"
	"math/bits"
)

// wheel is the engine's pending-event set: a bounded-horizon calendar
// queue (timing wheel).
//
// The structural fact it exploits: every event the engine schedules lands
// within a fixed horizon of the event being dispatched — an injection is
// G ahead, a network hop NetDelay, a section slot SectionGap, a bank
// completion at most the longest service plus the discipline's deferral
// (see schedHorizon), and a response NetDelay after that. schedHorizon
// sums these, so with buckets of width w covering more than horizon/w +
// slack buckets, the pending ticks (tick = floor(time/w)) always span
// fewer than len(buckets)-1 values and every bucket holds events of
// exactly one tick. Push and pop are then O(1) amortized: push adds to
// buckets[tick%nb], pop takes the cursor bucket's (time, kind, seq)
// minimum and otherwise walks the occupancy bitmap to the next tick.
//
// The pop sequence is the exact (time, kind, seq) total order of
// eventLess — load-bearing for the runner's memo cache and checkpoint
// journal, which key on the simulated cycle counts. Three facts make it
// exact rather than approximate:
//
//   - the bucket width is a power of two, so tick = time * (1/w) is an
//     exact floating-point scaling and floor(time/w) is computed without
//     rounding for every representable time;
//   - tick is monotone in time, and all events sharing a time share a
//     bucket, so cross-bucket order is by tick and within a bucket the
//     comparison is on full (time, kind, seq) keys;
//   - the engine never schedules into the past (every push is at or after
//     the event being dispatched), so the cursor never passes a pending
//     event. push enforces the horizon invariant and panics on violation
//     rather than silently misordering.
//
// TestWheelQueueLevel checks the pop order against a sorted-slice model;
// TestEngineVsReferenceDifferential and FuzzSimVsReference check whole
// runs against the per-clock RunReference oracle. See DESIGN.md §11.
type wheel struct {
	buckets [][]event // one slice per tick bucket; len is a power of two
	occ     []uint64  // occupancy bitmap: bit b set iff buckets[b] non-empty
	mask    int       // len(buckets) - 1
	invW    float64   // 1/w where w is the bucket width, an exact power of two
	cur     int64     // tick of the last popped event (cursor)
	n       int       // pending events
}

const (
	wheelMinBuckets = 64
	wheelMaxBuckets = 4096
	// wheelSlack keeps the bucket count strictly above horizon/w + 1 so
	// pending ticks can never wrap onto the cursor's lap, even with the
	// +1 tick a bucket-boundary-straddling interval can span.
	wheelSlack = 4
)

// schedHorizon bounds how far ahead of the event being dispatched any
// newly scheduled event can land, for the normalized config. The bound is
// the sum of every per-hop increment rather than their max, trading a
// slightly wider wheel for immunity to any one increment being combined
// with another (a bank completion is service + NetDelay from the start
// that scheduled it).
//
// Regulated, the one discipline that defers a service start beyond the
// dispatching event, widens the horizon by its worst-case deferral: a
// Regulated bank holds a request at most one full regulation window.
func schedHorizon(cfg Config) float64 {
	b := cfg.Bank
	service := cfg.Machine.D
	hold := 0.0
	switch b.Discipline {
	case FIFO:
		if b.CacheLines > 0 && b.HitDelay > service {
			service = b.HitDelay
		}
	case DRAM:
		service = b.HitDelay
		if b.MissDelay > service {
			service = b.MissDelay
		}
	case Regulated:
		hold = b.RegWindow
	}
	h := cfg.Machine.G + service + hold + 2*cfg.NetDelay
	if cfg.UseSections && cfg.Machine.Sections > 1 {
		h += cfg.Machine.SectionGap
	}
	return h
}

// reset prepares the wheel for one run of the normalized cfg, retaining
// bucket storage from previous runs whenever it still fits (the engine
// reuse contract: a steady-state sweep re-resets the same shapes and
// allocates nothing).
func (q *wheel) reset(cfg Config, procs int) {
	// A cancelled run abandons events mid-flight; clear the full backing
	// capacity, not just the last run's active region, so a later regrow
	// within capacity cannot resurrect stale events or occupancy bits.
	if q.n > 0 {
		b := q.buckets[:cap(q.buckets)]
		for i := range b {
			b[i] = b[i][:0]
		}
		o := q.occ[:cap(q.occ)]
		for i := range o {
			o[i] = 0
		}
	}
	q.n = 0
	q.cur = 0

	// Ideal bucket width ~ G/(2p): processors inject p requests every G
	// cycles and each request produces a handful of events, so this keeps
	// the expected bucket occupancy at one or two events. Widen (halving
	// the bucket count) until the horizon fits the bucket cap.
	if procs < 1 {
		procs = 1
	}
	h := schedHorizon(cfg)
	_, exp := math.Frexp(cfg.Machine.G / float64(2*procs))
	e := exp - 1 // floor(log2(G/2p)); w = 2^e
	need := wheelNeed(h, e)
	for need > wheelMaxBuckets {
		e++
		need = wheelNeed(h, e)
	}
	nb := wheelMinBuckets
	for nb < need {
		nb <<= 1
	}
	q.invW = math.Ldexp(1, -e)
	q.mask = nb - 1

	words := nb / 64
	if cap(q.buckets) >= nb && cap(q.occ) >= words {
		q.buckets = q.buckets[:nb]
		q.occ = q.occ[:words]
		return
	}
	q.buckets = make([][]event, nb)
	q.occ = make([]uint64, words)
	// One slab supplies every bucket's initial storage; only a bucket
	// that ever exceeds it reallocates (amortized, and retained across
	// resets).
	const per = 4
	slab := make([]event, nb*per)
	for i := range q.buckets {
		q.buckets[i] = slab[:0:per]
		slab = slab[per:]
	}
}

// wheelNeed returns the bucket count required to cover horizon h with
// bucket width 2^e.
func wheelNeed(h float64, e int) int {
	return int(math.Ceil(math.Ldexp(h, -e))) + wheelSlack
}

func (q *wheel) len() int { return q.n }

// eventLess is the (time, kind, seq) total order the wheel pops in. Do
// not reorder the tie-breaks: kind before seq puts a request arriving at
// a bank before that bank's completion at the same instant, so the
// arrival queues and the completion starts it — the order RunReference
// specifies. Keys are unique —
// seq identifies a request or an injection slot, and each request has at
// most one pending event of each kind — so the order is strict.
func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// push inserts ev. ev.time must be at or after the last popped event's
// time and within the configured horizon of it — the engine's scheduling
// discipline guarantees both; violations panic rather than misorder.
//
// Each bucket is kept as a binary min-heap on the (time, kind, seq) key,
// so extracting the bucket minimum is O(log B) instead of a linear scan.
// In the common FIFO regime buckets hold one or two events and the sift
// loops are a single comparison; the payoff is warp-synchronous issue
// (GPUShared), which lands WarpSize×procs same-time events in one bucket
// and turned the old scan quadratic — 85% of the GPU bench's profile.
// Keys are unique ((kind, seq) never repeats), so the heap pops the
// strict minimum and the pop sequence is unchanged.
func (q *wheel) push(ev event) {
	tick := int64(ev.time * q.invW)
	if d := tick - q.cur; d < 0 || d >= int64(q.mask) {
		panic("sim: event scheduled outside the wheel horizon")
	}
	b := int(tick) & q.mask
	bk := append(q.buckets[b], ev)
	i := len(bk) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&bk[i], &bk[parent]) {
			break
		}
		bk[i], bk[parent] = bk[parent], bk[i]
		i = parent
	}
	q.buckets[b] = bk
	q.occ[b>>6] |= 1 << uint(b&63)
	q.n++
}

// pop removes and returns the (time, kind, seq)-minimum pending event.
// Call only when len() > 0.
func (q *wheel) pop() event {
	b := int(q.cur) & q.mask
	bk := q.buckets[b]
	if len(bk) == 0 {
		b = q.advance(b)
		bk = q.buckets[b]
	}
	ev := bk[0]
	last := len(bk) - 1
	if last > 0 {
		bk[0] = bk[last]
		i := 0
		for {
			l := 2*i + 1
			if l >= last {
				break
			}
			if r := l + 1; r < last && eventLess(&bk[r], &bk[l]) {
				l = r
			}
			if !eventLess(&bk[l], &bk[i]) {
				break
			}
			bk[i], bk[l] = bk[l], bk[i]
			i = l
		}
	}
	q.buckets[b] = bk[:last]
	if last == 0 {
		q.occ[b>>6] &^= 1 << uint(b&63)
	}
	q.n--
	return ev
}

// advance walks the occupancy bitmap from bucket b (known empty) to the
// next occupied bucket, moves the cursor to that bucket's tick, and
// returns its index. Because pending ticks span fewer than len(buckets)-1
// values, the first occupied bucket in circular order holds exactly the
// minimum pending tick.
func (q *wheel) advance(b int) int {
	words := len(q.occ)
	wi := (b + 1) >> 6
	off := uint((b + 1) & 63)
	if wi == words {
		wi, off = 0, 0
	}
	word := q.occ[wi] & (^uint64(0) << off)
	for range q.occ {
		if word != 0 {
			f := wi<<6 + bits.TrailingZeros64(word)
			q.cur += int64((f - b) & q.mask)
			return f
		}
		wi++
		if wi == words {
			wi = 0
		}
		word = q.occ[wi]
	}
	// One extra look at the first word's low bits, reachable only after a
	// full wrap (the cursor sat near the end of that word).
	if word != 0 {
		f := wi<<6 + bits.TrailingZeros64(word)
		q.cur += int64((f - b) & q.mask)
		return f
	}
	panic("sim: wheel.pop on an empty queue")
}
