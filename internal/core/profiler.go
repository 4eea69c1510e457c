package core

import (
	"fmt"
	"math"
)

// Profiler runs the location pass: it groups a stream's requests by
// address, which is what MaxLoc, DistinctLocs and MaxKDistinct (and the
// QRQW contention κ, and the entropy of a key distribution) are computed
// from. The zero value is ready to use. A Profiler keeps its buffers
// from call to call, so a warm one profiles without allocating; slices
// it returns alias those buffers and are valid until its next call. A
// Profiler is not safe for concurrent use.
type Profiler struct {
	hist     []int    // requests per bank
	distinct []int    // distinct locations per bank
	dense    []int32  // requests per address−lo; all zero between calls
	locs     []uint64 // distinct locations (the sorted copy on the sort side)
	counts   []int    // requests to each entry of locs
	scratch  []uint64 // the radix sort's second buffer
}

// Locations groups the requests of segs, read as one stream, by address.
// It returns the distinct addresses in ascending order and the number of
// requests to each. When the stream's span hi−lo is below 2n it counts
// into a dense array indexed by address−lo, in O(n + span); otherwise it
// radix-sorts a copy of the addresses and scans the runs, in O(n). Sparse
// streams (uniform draws over a large space) need the sort side: a dense
// array over their span would be far larger than the stream.
func (pr *Profiler) Locations(segs ...[]uint64) (locs []uint64, counts []int) {
	n := 0
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, s := range segs {
		n += len(s)
		for _, a := range s {
			lo, hi = min(lo, a), max(hi, a)
		}
	}
	switch {
	case n == 0:
		return pr.locs[:0], pr.counts[:0]
	case hi-lo < uint64(2*n):
		return pr.countDense(segs, n, lo, int(hi-lo)+1)
	default:
		return pr.countSorted(segs, n)
	}
}

// countDense is the dense side of Locations: span counters for the n
// addresses of segs, all at or above lo. It leaves every counter it read
// zero again, so the buffer never needs clearing.
func (pr *Profiler) countDense(segs [][]uint64, n int, lo uint64, span int) ([]uint64, []int) {
	if cap(pr.dense) < span {
		pr.dense = make([]int32, span)
	}
	dense := pr.dense[:span]
	for _, s := range segs {
		for _, a := range s {
			dense[a-lo]++
		}
	}
	pr.locs, pr.counts = grow(pr.locs, n), grow(pr.counts, n)
	locs, counts := pr.locs, pr.counts
	d := 0
	for i, c := range dense {
		if c != 0 {
			locs[d], counts[d] = lo+uint64(i), int(c)
			dense[i] = 0
			d++
		}
	}
	return locs[:d], counts[:d]
}

// countSorted is the sort side of Locations: it copies the n addresses of
// segs, sorts them, and compacts each run of equal addresses in place to
// one location and its count.
func (pr *Profiler) countSorted(segs [][]uint64, n int) ([]uint64, []int) {
	pr.locs, pr.counts = grow(pr.locs, n), grow(pr.counts, n)
	locs, counts := pr.locs, pr.counts
	pos := 0
	for _, s := range segs {
		pos += copy(locs[pos:], s)
	}
	pr.scratch = sortAddrs(locs, pr.scratch)
	d := 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && locs[j] == locs[i] {
			j++
		}
		locs[d], counts[d] = locs[i], j-i
		d++
		i = j
	}
	return locs[:d], counts[:d]
}

// profile is ComputeProfileCompact on the Profiler's buffers.
func (pr *Profiler) profile(pt Pattern, bm BankMap) Profile {
	pr.hist = zeroed(pr.hist, bm.NumBanks())
	prof := Profile{Loads: bankLoads(pt, bm, pr.hist)}
	pr.locationStats(&prof, bm, pt.PerProc...)
	return prof
}

// RoundRobin profiles the flat stream addrs as issued round-robin by p
// processors: it returns ComputeProfileCompact(NewPattern(addrs, p), bm)
// without building the pattern. Round-robin issue gives the busiest
// processor h = ⌈n/p⌉ requests, and the bank and location statistics do
// not depend on which processor issues what.
func (pr *Profiler) RoundRobin(addrs []uint64, p int, bm BankMap) Profile {
	if p <= 0 {
		panic(fmt.Sprintf("core: RoundRobin with p=%d", p))
	}
	pr.hist = zeroed(pr.hist, bm.NumBanks())
	countBanks(pr.hist, addrs, bm)
	n := len(addrs)
	prof := Profile{Loads: Loads{N: n, Procs: p, Banks: len(pr.hist), MaxH: (n + p - 1) / p, MaxK: maxOf(pr.hist)}}
	pr.locationStats(&prof, bm, addrs)
	return prof
}

// locationStats fills prof's location fields from the location pass over
// segs.
func (pr *Profiler) locationStats(prof *Profile, bm BankMap, segs ...[]uint64) {
	locs, counts := pr.Locations(segs...)
	pr.distinct = zeroed(pr.distinct, bm.NumBanks())
	for i, a := range locs {
		prof.MaxLoc = max(prof.MaxLoc, counts[i])
		pr.distinct[bm.Bank(a)]++
	}
	prof.DistinctLocs = len(locs)
	prof.MaxKDistinct = maxOf(pr.distinct)
}

// grow returns b resliced to length n, reallocated if its capacity is
// short. The contents are not preserved or cleared.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// zeroed returns b resliced to length n and cleared.
func zeroed(b []int, n int) []int {
	b = grow(b, n)
	clear(b)
	return b
}
