package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// BankMap maps memory addresses (word indices) to memory banks. The
// identity-interleave map models conventional hardware interleaving; the
// hashfn package provides pseudo-random (universal hash) maps.
type BankMap interface {
	// Bank returns the bank index in [0, NumBanks()) holding addr.
	Bank(addr uint64) int
	// NumBanks returns the number of banks the map distributes over.
	NumBanks() int
}

// InterleaveMap is the conventional bank mapping: bank = addr mod banks.
// Consecutive addresses land in consecutive banks, so unit-stride access is
// perfectly spread, while stride-b access concentrates on one bank.
type InterleaveMap struct {
	Banks int
}

// Bank implements BankMap.
func (m InterleaveMap) Bank(addr uint64) int { return int(addr % uint64(m.Banks)) }

// NumBanks implements BankMap.
func (m InterleaveMap) NumBanks() int { return m.Banks }

// GPUSharedMap is the GPU shared-memory bank mapping: successive 32-bit
// words map to successive banks, so for byte addresses
// bank = (addr / 4) mod banks. With the canonical 32 banks, a warp's
// lanes conflict exactly when their word indices collide modulo 32
// (SNIPPETS.md puzzle 32): unit word stride is conflict-free, even
// strides serialize by gcd(stride, 32).
type GPUSharedMap struct {
	Banks int
}

// Bank implements BankMap.
func (m GPUSharedMap) Bank(addr uint64) int { return int((addr / 4) % uint64(m.Banks)) }

// NumBanks implements BankMap.
func (m GPUSharedMap) NumBanks() int { return m.Banks }

// Pattern is a bulk memory access pattern: for each processor, the ordered
// list of addresses it issues during one superstep (one vectorized scatter
// or gather). Patterns are what the model profiles and what the simulator
// executes.
type Pattern struct {
	PerProc [][]uint64
}

// NewPattern distributes a flat address stream round-robin over p
// processors, the way a vectorized loop distributes iterations.
func NewPattern(addrs []uint64, p int) Pattern {
	if p <= 0 {
		panic(fmt.Sprintf("core: NewPattern with p=%d", p))
	}
	per := make([][]uint64, p)
	if len(addrs) == 0 {
		return Pattern{PerProc: per}
	}
	chunk := (len(addrs) + p - 1) / p
	for i := range per {
		per[i] = make([]uint64, 0, chunk)
	}
	for i, a := range addrs {
		per[i%p] = append(per[i%p], a)
	}
	return Pattern{PerProc: per}
}

// NewPatternBlocked distributes a flat address stream in contiguous blocks:
// processor 0 gets the first n/p addresses, and so on. This matches how
// the paper's multiprocessor experiments divide an array among CPUs.
func NewPatternBlocked(addrs []uint64, p int) Pattern {
	if p <= 0 {
		panic(fmt.Sprintf("core: NewPatternBlocked with p=%d", p))
	}
	per := make([][]uint64, p)
	n := len(addrs)
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		per[i] = addrs[lo:hi:hi]
	}
	return Pattern{PerProc: per}
}

// N returns the total number of requests in the pattern.
func (pt Pattern) N() int {
	n := 0
	for _, a := range pt.PerProc {
		n += len(a)
	}
	return n
}

// Procs returns the number of processors in the pattern.
func (pt Pattern) Procs() int { return len(pt.PerProc) }

// Flatten returns all addresses in round-robin issue order.
func (pt Pattern) Flatten() []uint64 {
	out := make([]uint64, 0, pt.N())
	maxLen := 0
	for _, a := range pt.PerProc {
		if len(a) > maxLen {
			maxLen = len(a)
		}
	}
	for j := 0; j < maxLen; j++ {
		for _, a := range pt.PerProc {
			if j < len(a) {
				out = append(out, a[j])
			}
		}
	}
	return out
}

// Loads is the part of a pattern's profile the (d,x)-BSP cost law
// T = max(g·h, d·k) + L reads: the request count, the machine shape, and
// the two maxima h and k. It comes from one pass over the pattern into a
// per-bank histogram (ComputeLoads), with no copy or sort of the
// addresses, so hot loops that only cost a superstep stay O(n + banks).
type Loads struct {
	N     int // total requests
	Procs int // processors issuing them
	Banks int // banks in the mapping

	MaxH int // max requests issued by one processor (BSP's h)
	MaxK int // max requests received by one bank (the d*k term)
}

// Profile summarizes the contention structure of a Pattern under a given
// bank mapping: the Loads the cost law consumes, plus the location
// statistics (QRQW contention, distinct locations) the experiments use
// as diagnostics. The location statistics need equal addresses grouped
// (Profiler.Locations), so callers that read only h and k should use
// ComputeLoads instead.
type Profile struct {
	Loads

	// MaxLoc is the maximum number of requests addressed to one memory
	// location — the QRQW notion of contention κ. MaxK >= ceil stats of
	// MaxLoc since co-located requests share a bank.
	MaxLoc       int
	DistinctLocs int

	// MaxKDistinct is the maximum, over banks, of the number of *distinct
	// locations* mapped to the bank that are touched by the pattern. The
	// gap between MaxK and MaxLoc that is explained by multiple locations
	// sharing a bank — module-map contention — shows up here.
	MaxKDistinct int

	// BankLoads is the full per-bank request histogram (length Banks) when
	// retained; nil when the profile was computed with retention disabled.
	BankLoads []int
}

// sortAddrs sorts addresses ascending. Large inputs use an LSD radix
// sort — profiling is O(n) end to end, and address streams usually span
// far fewer than 64 significant bits, so constant high bytes make most
// of the 8 passes free. buf is the radix sort's second buffer; it is
// grown to len(xs) if short and returned for the next call.
func sortAddrs(xs, buf []uint64) []uint64 {
	const radixCutover = 256
	if len(xs) < radixCutover {
		slices.Sort(xs)
		return buf
	}
	var counts [8][256]int
	for _, x := range xs {
		for b := uint(0); b < 8; b++ {
			counts[b][byte(x>>(8*b))]++
		}
	}
	n := len(xs)
	buf = grow(buf, n)
	src, dst := xs, buf
	for b := uint(0); b < 8; b++ {
		c := &counts[b]
		// A byte position where every address shares one value sorts to
		// the identity permutation; skip the pass.
		if c[byte(src[0]>>(8*b))] == n {
			continue
		}
		offset := 0
		var starts [256]int
		for v := 0; v < 256; v++ {
			starts[v] = offset
			offset += c[v]
		}
		for _, x := range src {
			v := byte(x >> (8 * b))
			dst[starts[v]] = x
			starts[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	return buf
}

// ComputeLoads returns the bank loads of pattern pt under bank map bm:
// the load pass alone, without the location statistics. It is what the
// cost law needs, and what every caller that reads only h and k should
// use.
func ComputeLoads(pt Pattern, bm BankMap) Loads {
	return bankLoads(pt, bm, make([]int, bm.NumBanks()))
}

// bankLoads is the load pass: one walk over the pattern that counts
// requests per processor and, into the zeroed histogram hist, per bank.
func bankLoads(pt Pattern, bm BankMap, hist []int) Loads {
	l := Loads{Procs: pt.Procs(), Banks: len(hist)}
	for _, per := range pt.PerProc {
		l.N += len(per)
		l.MaxH = max(l.MaxH, len(per))
		countBanks(hist, per, bm)
	}
	l.MaxK = maxOf(hist)
	return l
}

// countBanks adds one to hist[bm.Bank(a)] for every address a: the one
// histogram loop of the package.
func countBanks(hist []int, addrs []uint64, bm BankMap) {
	for _, a := range addrs {
		hist[bm.Bank(a)]++
	}
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// ComputeProfile profiles pattern pt under bank map bm: the load pass of
// ComputeLoads plus the location pass (MaxLoc, DistinctLocs,
// MaxKDistinct), retaining the per-bank histogram.
func ComputeProfile(pt Pattern, bm BankMap) Profile {
	pr := profilers.Get().(*Profiler)
	defer profilers.Put(pr)
	prof := pr.profile(pt, bm)
	prof.BankLoads, pr.hist = pr.hist, nil // the caller keeps the histogram
	return prof
}

// ComputeProfileCompact is ComputeProfile without retaining the per-bank
// histogram. Loops that need only h and k should use ComputeLoads.
func ComputeProfileCompact(pt Pattern, bm BankMap) Profile {
	pr := profilers.Get().(*Profiler)
	defer profilers.Put(pr)
	return pr.profile(pt, bm)
}

// profilers recycles the Profilers of ComputeProfile and
// ComputeProfileCompact, so repeated calls reuse the location pass's
// buffers instead of allocating three n-sized arrays each.
var profilers = sync.Pool{New: func() any { return new(Profiler) }}

// LocationSpectrum returns the contention spectrum of a pattern: for each
// occurring contention level c, the number of distinct locations accessed
// exactly c times. The spectrum is what distinguishes "one hot spot"
// patterns from "everything lukewarm" patterns that share the same MaxLoc.
func LocationSpectrum(pt Pattern) map[int]int {
	var pr Profiler
	_, counts := pr.Locations(pt.PerProc...)
	spectrum := make(map[int]int)
	for _, c := range counts {
		spectrum[c]++
	}
	return spectrum
}

// LoadPercentile returns the q-quantile (0 <= q <= 1) of the per-bank load
// distribution. Requires the profile to have been computed with the
// histogram retained.
func (p Profile) LoadPercentile(q float64) int {
	if p.BankLoads == nil {
		panic("core: LoadPercentile on compact profile")
	}
	loads := make([]int, len(p.BankLoads))
	copy(loads, p.BankLoads)
	sort.Ints(loads)
	idx := int(q * float64(len(loads)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(loads) {
		idx = len(loads) - 1
	}
	return loads[idx]
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	return fmt.Sprintf("Profile{n=%d p=%d b=%d h=%d k=%d κ=%d distinct=%d}",
		p.N, p.Procs, p.Banks, p.MaxH, p.MaxK, p.MaxLoc, p.DistinctLocs)
}
