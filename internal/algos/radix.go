// Package algos implements the paper's algorithm studies on top of the
// vector-machine primitive layer: the vectorized radix sort of Zagha and
// Blelloch [ZB91] (the EREW workhorse), the QRQW binary search and random
// permutation of Gibbons, Matias and Ramachandran [GMR94a] with their EREW
// counterparts, sparse matrix–vector multiplication with segmented
// operations [BHZ93], and Greiner's connected-components algorithm
// [Gre94]. Each algorithm computes real results while its memory traffic
// is charged under (d,x)-BSP accounting, so both correctness and the
// paper's performance comparisons are testable.
package algos

import (
	"fmt"

	"dxbsp/internal/vector"
)

// RadixSortResult reports a sort run.
type RadixSortResult struct {
	// Ranks[i] is the position of element i in the sorted order (a
	// permutation: the sort is stable).
	Ranks []int64
	// Sorted holds the keys in ascending order.
	Sorted []int64
	// Passes is the number of digit passes performed.
	Passes int
}

// RadixSort stable-sorts the non-negative keys in v on machine vm using
// LSD radix sort with digitBits-bit digits, the vectorized counting-sort
// formulation of [ZB91]: each pass histograms digits into per-processor
// buckets (privatization bounds the scatter contention at n/2^digitBits
// per bucket-group rather than per single counter), prefix-sums the bucket
// array, and permutes elements to their destinations with a
// contention-free scatter.
//
// maxKey bounds the key range; passes = ceil(bits(maxKey)/digitBits).
func RadixSort(vm *vector.Machine, v *vector.Vec, maxKey int64, digitBits uint) RadixSortResult {
	if digitBits == 0 || digitBits > 16 {
		panic(fmt.Sprintf("algos: RadixSort digitBits=%d out of (0,16]", digitBits))
	}
	if maxKey < 0 {
		panic("algos: RadixSort requires non-negative keys")
	}
	n := v.Len()
	procs := vm.Mach().Procs
	radix := 1 << digitBits

	// Working vectors.
	keys := vm.Alloc(n)
	vm.Map1(keys, v, func(x int64) int64 { return x }, 0)
	order := vm.Alloc(n) // current permutation: order[i] = original index
	vm.Iota(order)

	digits := vm.Alloc(n)
	bucketIdx := vm.Alloc(n)
	buckets := vm.Alloc(radix * procs)
	bucketPos := vm.Alloc(radix * procs)
	vm.Iota(bucketPos)
	offsets := vm.Alloc(radix * procs)
	elemOff := vm.Alloc(n)
	dest := vm.Alloc(n)
	nextKeys := vm.Alloc(n)
	nextOrder := vm.Alloc(n)
	running := make([]int64, radix*procs) // each group's running rank

	passes := 0
	for shift := uint(0); ; shift += digitBits {
		if maxKey>>shift == 0 && shift > 0 {
			break
		}
		passes++

		// Extract digit of each key.
		mask := int64(radix - 1)
		sh := shift
		vm.Map1(digits, keys, func(x int64) int64 { return (x >> sh) & mask }, 2)

		// Per-processor bucket index: digit-major, processor-minor, with
		// elements assigned to processors in contiguous blocks (as [ZB91]
		// does). Blocked assignment is what makes each pass stable: for
		// equal digits, a smaller element index never lands in a larger
		// processor's bucket.
		for i := range bucketIdx.Data {
			bucketIdx.Data[i] = digits.Data[i]*int64(procs) + int64(i*procs/n)
		}
		vm.ChargeElementwise(n, 2)

		// Histogram. [ZB91]'s key trick: the per-virtual-processor counts
		// accumulate in vector registers (each lane owns its counters),
		// so the accumulation is an elementwise pass with NO memory
		// contention; only the final counter values are written out, one
		// store per counter (κ=1). This is what makes the radix sort the
		// contention-free EREW baseline the paper describes.
		for i := range buckets.Data {
			buckets.Data[i] = 0
		}
		for _, b := range bucketIdx.Data {
			buckets.Data[b]++
		}
		vm.ChargeElementwise(n, 2)
		vm.Scatter(buckets, buckets, bucketPos) // κ=1 store of the counters

		// Exclusive scan of the bucket array gives the first destination
		// of each (digit, processor) group.
		vm.ScanAdd(offsets, buckets)

		// Each element's destination: its group's offset plus its running
		// rank within the group. The running rank is computed in vector
		// registers on the real machine (the virtual-processor loop of
		// [ZB91]); here it is an elementwise pass.
		vm.Gather(elemOff, offsets, bucketIdx)
		clear(running)
		for i := range dest.Data {
			b := bucketIdx.Data[i]
			dest.Data[i] = elemOff.Data[i] + running[b]
			running[b]++
		}
		vm.ChargeElementwise(n, 3)

		// Permute keys and order by dest — a permutation scatter (κ=1).
		vm.Scatter(nextKeys, keys, dest)
		vm.Scatter(nextOrder, order, dest)
		keys, nextKeys = nextKeys, keys
		order, nextOrder = nextOrder, order

		if shift+digitBits >= 63 {
			break
		}
	}

	res := RadixSortResult{
		Sorted: append([]int64(nil), keys.Data...),
		Ranks:  make([]int64, n),
		Passes: passes,
	}
	for pos, orig := range order.Data {
		res.Ranks[orig] = int64(pos)
	}
	return res
}
