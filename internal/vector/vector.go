// Package vector provides the vectorized-primitive layer the paper's
// algorithms are written against: gather, scatter, elementwise operations,
// scans, segmented scans and pack, executing on simulated arrays while
// charging machine cycles under the (d,x)-BSP accounting.
//
// Every operation both computes its result (so algorithms built on top are
// semantically real) and charges time to a cycle ledger. Irregular
// accesses (gather/scatter index streams) are charged either analytically
// — max(g*h, d*k) from the contention profile of the actual addresses — or
// exactly, by running the discrete-event bank simulator on them. Unit-
// stride streams are charged at bandwidth (g cycles per element per
// processor per stream): with interleaved banks and x >= d/g they never
// bottleneck, which the simulator tests confirm.
//
// Arrays live in a simulated flat address space: each allocation gets a
// base address, so gather/scatter target addresses (and hence bank
// conflicts, including module-map conflicts between different arrays)
// are physically meaningful.
package vector

import (
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/sim"
)

// Mode selects how irregular accesses are charged.
type Mode int

const (
	// Analytic charges irregular supersteps with the (d,x)-BSP closed
	// form applied to the pattern's contention profile. Fast; this is the
	// default.
	Analytic Mode = iota
	// Simulate runs the discrete-event bank simulator on every irregular
	// superstep. Slower, exact queueing.
	Simulate
)

// Vec is a vector in the simulated address space.
type Vec struct {
	Data []int64
	Base uint64
}

// Len returns the number of elements.
func (v *Vec) Len() int { return len(v.Data) }

// Machine executes vector primitives and accounts their cost.
type Machine struct {
	mach core.Machine
	bm   core.BankMap
	mode Mode

	heap uint64 // bump allocator for simulated addresses

	cycles     float64
	supersteps int
	opCycles   map[string]float64
	maxLoc     int // worst location contention seen in any superstep

	trace   TraceFunc
	capture CaptureFunc

	prof  core.Profiler // location pass buffers, reused every superstep
	addrs []uint64      // irregular address stream, reused every superstep
}

// TraceFunc observes every irregular superstep: the operation name, the
// contention profile of its addresses, and the cycles charged. Experiments
// use it to extract per-phase access patterns from running algorithms.
type TraceFunc func(op string, prof core.Profile, cycles float64)

// CaptureFunc receives the raw address stream of every irregular
// superstep, for replaying algorithm traces through other machinery (the
// QRQW bridge, the dxtrace format). The machine reuses the slice for the
// next superstep, so it is only valid during the call; copy it to retain
// it.
type CaptureFunc func(op string, addrs []uint64)

// Option configures a Machine.
type Option func(*Machine)

// WithMode selects analytic or simulated charging.
func WithMode(m Mode) Option { return func(vm *Machine) { vm.mode = m } }

// WithBankMap installs a bank mapping (e.g. a hashfn.Map). Defaults to
// hardware interleave over the machine's banks.
func WithBankMap(bm core.BankMap) Option { return func(vm *Machine) { vm.bm = bm } }

// WithTrace installs a callback observing every irregular superstep.
func WithTrace(f TraceFunc) Option { return func(vm *Machine) { vm.trace = f } }

// SetTrace replaces the trace callback and returns the previous one, so
// algorithms can interpose per-phase observers and restore the caller's.
func (vm *Machine) SetTrace(f TraceFunc) TraceFunc {
	old := vm.trace
	vm.trace = f
	return old
}

// WithCapture installs a raw address-stream observer.
func WithCapture(f CaptureFunc) Option { return func(vm *Machine) { vm.capture = f } }

// New returns a vector machine over m. It panics if m is invalid.
func New(m core.Machine, opts ...Option) *Machine {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	vm := &Machine{
		mach:     m,
		bm:       core.InterleaveMap{Banks: m.Banks},
		opCycles: make(map[string]float64),
	}
	for _, o := range opts {
		o(vm)
	}
	if vm.bm.NumBanks() != m.Banks {
		panic(fmt.Sprintf("vector: bank map covers %d banks, machine has %d", vm.bm.NumBanks(), m.Banks))
	}
	return vm
}

// Mach returns the underlying machine description.
func (vm *Machine) Mach() core.Machine { return vm.mach }

// Cycles returns total charged cycles since the last Reset.
func (vm *Machine) Cycles() float64 { return vm.cycles }

// Supersteps returns the number of supersteps (bulk operations) charged.
func (vm *Machine) Supersteps() int { return vm.supersteps }

// MaxLocContention returns the largest per-location contention observed in
// any irregular superstep since the last Reset.
func (vm *Machine) MaxLocContention() int { return vm.maxLoc }

// OpCycles returns a copy of the per-operation cycle breakdown.
func (vm *Machine) OpCycles() map[string]float64 {
	out := make(map[string]float64, len(vm.opCycles))
	for k, v := range vm.opCycles {
		out[k] = v
	}
	return out
}

// Reset clears the cycle ledger (allocations are kept).
func (vm *Machine) Reset() {
	vm.cycles = 0
	vm.supersteps = 0
	vm.maxLoc = 0
	vm.opCycles = make(map[string]float64)
}

// Alloc allocates a zeroed vector of n elements at a fresh base address.
func (vm *Machine) Alloc(n int) *Vec {
	v := &Vec{Data: make([]int64, n), Base: vm.heap}
	vm.heap += uint64(n)
	return v
}

// AllocInit allocates a vector holding a copy of data.
func (vm *Machine) AllocInit(data []int64) *Vec {
	v := vm.Alloc(len(data))
	copy(v.Data, data)
	return v
}

// charge records cycles against an operation name.
func (vm *Machine) charge(op string, cycles float64) {
	vm.cycles += cycles
	vm.opCycles[op] += cycles
	vm.supersteps++
}

// strideCost returns the cost of streaming k unit-stride vectors of n
// elements: bandwidth-bound at g per element per processor per stream.
func (vm *Machine) strideCost(n, k int) float64 {
	p := float64(vm.mach.Procs)
	return vm.mach.G * float64(k) * float64(n) / p
}

// addrBuf returns the machine's address buffer with length n, for an
// irregular superstep to fill and hand to irregularCost.
func (vm *Machine) addrBuf(n int) []uint64 {
	if cap(vm.addrs) < n {
		vm.addrs = make([]uint64, n)
	}
	return vm.addrs[:n]
}

// irregularCost charges the superstep cost of n irregular requests at the
// given simulated addresses, issued round-robin over the processors.
func (vm *Machine) irregularCost(op string, addrs []uint64) float64 {
	if vm.capture != nil {
		vm.capture(op, addrs)
	}
	prof := vm.prof.RoundRobin(addrs, vm.mach.Procs, vm.bm)
	if prof.MaxLoc > vm.maxLoc {
		vm.maxLoc = prof.MaxLoc
	}
	var cycles float64
	switch vm.mode {
	case Simulate:
		pt := core.NewPattern(addrs, vm.mach.Procs)
		r, err := sim.Run(sim.Config{Machine: vm.mach, BankMap: vm.bm}, pt)
		if err != nil {
			panic(fmt.Sprintf("vector: simulation failed: %v", err))
		}
		cycles = r.Cycles + vm.mach.L
	default:
		cycles = vm.mach.PredictDXBSP(prof.Loads)
	}
	if vm.trace != nil {
		vm.trace(op, prof, cycles)
	}
	return cycles
}

// ChargeElementwise charges the cost of one hand-rolled elementwise pass
// over n elements with the given per-element compute op count, for
// algorithm steps that compute directly on Vec.Data (e.g. register-resident
// virtual-processor loops) and must still account their time.
func (vm *Machine) ChargeElementwise(n int, ops float64) {
	c := vm.strideCost(n, 2)
	if comp := ops * float64(n) / float64(vm.mach.Procs); comp > c {
		c = comp
	}
	vm.charge("map", c+vm.mach.L)
}

// Fill sets every element of v to val. Cost: one output stream.
func (vm *Machine) Fill(v *Vec, val int64) {
	for i := range v.Data {
		v.Data[i] = val
	}
	vm.charge("fill", vm.strideCost(v.Len(), 1)+vm.mach.L)
}

// Iota fills v with 0, 1, 2, ...
func (vm *Machine) Iota(v *Vec) {
	for i := range v.Data {
		v.Data[i] = int64(i)
	}
	vm.charge("iota", vm.strideCost(v.Len(), 1)+vm.mach.L)
}

// Map1 computes dst[i] = f(a[i]). ops is the compute operation count per
// element; the charge is the max of compute and the two unit-stride
// streams (vector units chain compute with memory).
func (vm *Machine) Map1(dst, a *Vec, f func(int64) int64, ops float64) {
	vm.checkLen("Map1", dst, a)
	for i := range a.Data {
		dst.Data[i] = f(a.Data[i])
	}
	n := float64(a.Len()) / float64(vm.mach.Procs)
	c := vm.strideCost(a.Len(), 2)
	if comp := ops * n; comp > c {
		c = comp
	}
	vm.charge("map", c+vm.mach.L)
}

// Map2 computes dst[i] = f(a[i], b[i]).
func (vm *Machine) Map2(dst, a, b *Vec, f func(int64, int64) int64, ops float64) {
	vm.checkLen("Map2", dst, a)
	vm.checkLen("Map2", a, b)
	for i := range a.Data {
		dst.Data[i] = f(a.Data[i], b.Data[i])
	}
	n := float64(a.Len()) / float64(vm.mach.Procs)
	c := vm.strideCost(a.Len(), 3)
	if comp := ops * n; comp > c {
		c = comp
	}
	vm.charge("map", c+vm.mach.L)
}

// Gather computes dst[i] = src[idx[i]]. The irregular read stream is
// profiled/simulated at src's real addresses; reading idx and writing dst
// are unit-stride.
func (vm *Machine) Gather(dst, src, idx *Vec) {
	vm.checkLen("Gather", dst, idx)
	addrs := vm.addrBuf(idx.Len())
	for i, ix := range idx.Data {
		vm.checkIndex("Gather", ix, src)
		addrs[i] = src.Base + uint64(ix)
		dst.Data[i] = src.Data[ix]
	}
	vm.charge("gather", vm.strideCost(idx.Len(), 2)+vm.irregularCost("gather", addrs))
}

// Scatter computes dst[idx[i]] = src[i]. On duplicate indices the highest
// vector position wins, which is the deterministic behaviour of a
// vectorized scatter on the machines modeled (last write in vector order).
func (vm *Machine) Scatter(dst, src, idx *Vec) {
	vm.checkLen("Scatter", src, idx)
	addrs := vm.addrBuf(idx.Len())
	for i, ix := range idx.Data {
		vm.checkIndex("Scatter", ix, dst)
		addrs[i] = dst.Base + uint64(ix)
		dst.Data[ix] = src.Data[i]
	}
	vm.charge("scatter", vm.strideCost(idx.Len(), 2)+vm.irregularCost("scatter", addrs))
}

// ScatterConst scatters the constant val to dst at idx.
func (vm *Machine) ScatterConst(dst *Vec, val int64, idx *Vec) {
	addrs := vm.addrBuf(idx.Len())
	for i, ix := range idx.Data {
		vm.checkIndex("ScatterConst", ix, dst)
		addrs[i] = dst.Base + uint64(ix)
		dst.Data[ix] = val
	}
	vm.charge("scatter", vm.strideCost(idx.Len(), 1)+vm.irregularCost("scatter-const", addrs))
}

// ScatterAdd atomically (in vector-order) adds src[i] into dst[idx[i]].
// Machines without combining implement this via sorting or virtual-
// processor privatization; the charge model treats it like a scatter
// (contention serializes at banks identically) — algorithms that need a
// cheaper histogram build one explicitly, as the radix sort does.
func (vm *Machine) ScatterAdd(dst, src, idx *Vec) {
	vm.checkLen("ScatterAdd", src, idx)
	addrs := vm.addrBuf(idx.Len())
	for i, ix := range idx.Data {
		vm.checkIndex("ScatterAdd", ix, dst)
		addrs[i] = dst.Base + uint64(ix)
		dst.Data[ix] += src.Data[i]
	}
	vm.charge("scatter", vm.strideCost(idx.Len(), 2)+vm.irregularCost("scatter-add", addrs))
}

// ScanAdd writes the exclusive prefix sum of src into dst (dst[0] = 0).
// Charged as two passes over the data plus a logarithmic tree term.
func (vm *Machine) ScanAdd(dst, src *Vec) {
	vm.checkLen("ScanAdd", dst, src)
	acc := int64(0)
	for i, v := range src.Data {
		dst.Data[i] = acc
		acc += v
	}
	vm.charge("scan", vm.strideCost(src.Len(), 4)+2*vm.mach.L)
}

// SegScanAdd writes the exclusive segmented prefix sum of src into dst;
// flags[i] != 0 marks the start of a segment. This is the primitive behind
// the sparse matrix kernels [BHZ93].
func (vm *Machine) SegScanAdd(dst, src, flags *Vec) {
	vm.checkLen("SegScanAdd", dst, src)
	vm.checkLen("SegScanAdd", src, flags)
	acc := int64(0)
	for i, v := range src.Data {
		if flags.Data[i] != 0 {
			acc = 0
		}
		dst.Data[i] = acc
		acc += v
	}
	vm.charge("segscan", vm.strideCost(src.Len(), 5)+2*vm.mach.L)
}

// Reduce returns the sum of src. Charged as one pass.
func (vm *Machine) Reduce(src *Vec) int64 {
	acc := int64(0)
	for _, v := range src.Data {
		acc += v
	}
	vm.charge("reduce", vm.strideCost(src.Len(), 1)+2*vm.mach.L)
	return acc
}

// Pack writes the elements of src whose mask is non-zero into the prefix
// of dst, preserving order, and returns how many were written. Charged as
// a scan plus a write pass.
func (vm *Machine) Pack(dst, src, mask *Vec) int {
	vm.checkLen("Pack", src, mask)
	k := 0
	for i, m := range mask.Data {
		if m != 0 {
			if k >= dst.Len() {
				panic(fmt.Sprintf("vector: Pack: dst too small (%d)", dst.Len()))
			}
			dst.Data[k] = src.Data[i]
			k++
		}
	}
	vm.charge("pack", vm.strideCost(src.Len(), 4)+2*vm.mach.L)
	return k
}

func (vm *Machine) checkLen(op string, a, b *Vec) {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("vector: %s: length mismatch %d vs %d", op, a.Len(), b.Len()))
	}
}

func (vm *Machine) checkIndex(op string, ix int64, v *Vec) {
	if ix < 0 || ix >= int64(v.Len()) {
		panic(fmt.Sprintf("vector: %s: index %d out of range [0,%d)", op, ix, v.Len()))
	}
}
