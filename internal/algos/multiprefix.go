package algos

import (
	"fmt"

	"dxbsp/internal/vector"
)

// This file implements the multiprefix operation of Sheffler [She93],
// which the paper names as future work for its contention analysis:
// given keys and values, compute for every element the running sum of the
// values of earlier elements with the same key, plus per-key totals.
// Multiprefix generalizes histogramming and is the workhorse behind
// counting sorts and bucketing on vector machines.
//
// Two formulations with very different contention structure are provided:
//
//   - MultiprefixDirect: the QRQW formulation — a queued fetch&add
//     straight into the per-key totals. One pass, but the scatter-add's
//     per-location contention equals the maximum key frequency, so the
//     (d,x)-BSP charges skewed key distributions heavily.
//   - MultiprefixSorted: radix-sort the keys, segmented-scan the values,
//     scatter back (every irregular access a permutation, κ = 1).
//     EREW-style: immune to skew but pays the full sort.
//
// The crossover between them as key skew grows is the contention story
// the paper's framework predicts.

// MultiprefixResult reports a multiprefix run.
type MultiprefixResult struct {
	// Prefix[i] = sum of Vals[j] for j < i with Keys[j] == Keys[i].
	Prefix []int64
	// Totals[k] = total value per key.
	Totals []int64
	// MaxContention is the largest per-location contention observed.
	MaxContention int
}

// MultiprefixDirect computes the multiprefix over small integer keys in
// [0, numKeys) the QRQW way: a queued fetch&add directly into the per-key
// totals. Each element's prefix is the counter value it observed before
// its own addition (the deterministic vector-order semantics of the
// machine's scatter-add). The single irregular superstep has per-location
// contention equal to the maximum key frequency — exactly what the queue
// rule charges, and what the sort-based variant spends a whole sort to
// avoid.
func MultiprefixDirect(vm *vector.Machine, keys, vals []int64, numKeys int) MultiprefixResult {
	checkMultiprefixArgs(keys, vals, numKeys)
	n := len(keys)

	kv := vm.AllocInit(keys)
	vv := vm.AllocInit(vals)

	res := MultiprefixResult{
		Prefix: make([]int64, n),
		Totals: make([]int64, numKeys),
	}
	// The prefixes are the fetch half of the fetch&add — the value each
	// element observes before its own addition, in the machine's
	// deterministic vector order. They ride along with the scatter-add
	// superstep at no extra charge.
	running := make([]int64, numKeys)
	for i, k := range keys {
		res.Prefix[i] = running[k]
		running[k] += vals[i]
	}
	totals := vm.Alloc(numKeys)
	vm.Fill(totals, 0)
	vm.ScatterAdd(totals, vv, kv)
	copy(res.Totals, totals.Data)
	res.MaxContention = vm.MaxLocContention()
	return res
}

// MultiprefixSorted computes the same result the EREW way: stable
// radix-sort element indices by key, segmented-scan the values in sorted
// order, and scatter the per-element prefixes back — every irregular
// access is a permutation (κ = 1).
func MultiprefixSorted(vm *vector.Machine, keys, vals []int64, numKeys int) MultiprefixResult {
	checkMultiprefixArgs(keys, vals, numKeys)
	n := len(keys)

	kv := vm.AllocInit(keys)
	sorted := RadixSort(vm, kv, int64(numKeys-1), 11)

	// inv[pos] = original index at sorted position.
	inv := make([]int64, n)
	for orig, pos := range sorted.Ranks {
		inv[pos] = int64(orig)
	}
	invV := vm.AllocInit(inv)

	// Permute values into sorted order (κ=1 gather).
	vv := vm.AllocInit(vals)
	sv := vm.Alloc(n)
	vm.Gather(sv, vv, invV)

	// Segment flags at key boundaries in sorted order.
	flags := vm.Alloc(n)
	for pos := 0; pos < n; pos++ {
		if pos == 0 || sorted.Sorted[pos] != sorted.Sorted[pos-1] {
			flags.Data[pos] = 1
		}
	}
	vm.ChargeElementwise(n, 2)

	scan := vm.Alloc(n)
	vm.SegScanAdd(scan, sv, flags)

	// Scatter prefixes back to original positions (κ=1 scatter).
	out := vm.Alloc(n)
	vm.Scatter(out, scan, invV)

	res := MultiprefixResult{
		Prefix: append([]int64(nil), out.Data...),
		Totals: make([]int64, numKeys),
	}
	for i, k := range keys {
		res.Totals[k] += vals[i]
	}
	vm.ChargeElementwise(n, 1)
	res.MaxContention = vm.MaxLocContention()
	return res
}

func checkMultiprefixArgs(keys, vals []int64, numKeys int) {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("algos: multiprefix: %d keys vs %d values", len(keys), len(vals)))
	}
	if numKeys <= 0 {
		panic(fmt.Sprintf("algos: multiprefix: numKeys=%d", numKeys))
	}
	for _, k := range keys {
		if k < 0 || k >= int64(numKeys) {
			panic(fmt.Sprintf("algos: multiprefix: key %d out of [0,%d)", k, numKeys))
		}
	}
}
