package algos

import (
	"fmt"
	"sort"

	"dxbsp/internal/rng"
	"dxbsp/internal/vector"
)

// This file implements parallel merging, the remaining algorithm on the
// paper's "currently looking into" list (with multiprefix and list
// ranking): merge two sorted arrays by cross-ranking — each element's
// output position is its own index plus its rank in the other array.
//
// The ranks are computed with batched binary search, so the contention
// structure is the replicated-tree story of [GMR94a] again: with heavy
// duplication in the inputs, many searches traverse the same tree path
// and the tree root is hot; replication bounds it. The EREW baseline
// simply radix-sorts the concatenation.

// MergeResult reports a merge run.
type MergeResult struct {
	// Merged is the merged ascending sequence.
	Merged []int64
	// MaxContention is the largest per-location contention observed.
	MaxContention int
}

// MergeQRQW merges sorted a and b by cross-ranking with replicated-tree
// binary search (replication factor r). Elements of a precede equal
// elements of b, so the merge is stable. Keys must be non-negative (the
// tie-break uses key-1 queries).
func MergeQRQW(vm *vector.Machine, a, b []int64, r int, g *rng.Xoshiro256) MergeResult {
	checkSortedNonNegative("MergeQRQW", a)
	checkSortedNonNegative("MergeQRQW", b)
	na, nb := len(a), len(b)
	out := make([]int64, na+nb)
	res := MergeResult{}
	if na == 0 || nb == 0 {
		copy(out, a)
		copy(out[na:], b)
		res.Merged = out
		return res
	}

	// Rank of a[i] in b: number of b-elements strictly below a[i]
	// (so equal keys from b land after), i.e. count(b <= a[i]-1).
	treeB := BuildSearchTree(vm, b, r)
	qa := make([]int64, na)
	for i, v := range a {
		qa[i] = v - 1
	}
	vm.ChargeElementwise(na, 1)
	ra := treeB.Search(qa, g)

	// Rank of b[j] in a: count(a <= b[j]).
	treeA := BuildSearchTree(vm, a, r)
	rb := treeA.Search(b, g)

	// Scatter to output positions: pos(a[i]) = i + rank, pos(b[j]) = j +
	// rank. The destinations form a permutation (κ = 1).
	posA := vm.Alloc(na)
	for i := range posA.Data {
		posA.Data[i] = int64(i) + ra.Ranks[i] + 1
	}
	posB := vm.Alloc(nb)
	for j := range posB.Data {
		posB.Data[j] = int64(j) + rb.Ranks[j] + 1
	}
	vm.ChargeElementwise(na+nb, 2)

	dst := vm.Alloc(na + nb)
	av := vm.AllocInit(a)
	bv := vm.AllocInit(b)
	vm.Scatter(dst, av, posA)
	vm.Scatter(dst, bv, posB)
	copy(out, dst.Data)
	res.Merged = out
	res.MaxContention = vm.MaxLocContention()
	return res
}

// MergeEREW merges by radix-sorting the concatenation (a's elements
// first, so stability preserves the same tie order as MergeQRQW).
func MergeEREW(vm *vector.Machine, a, b []int64, maxKey int64) MergeResult {
	checkSortedNonNegative("MergeEREW", a)
	checkSortedNonNegative("MergeEREW", b)
	comb := vm.Alloc(len(a) + len(b))
	copy(comb.Data, a)
	copy(comb.Data[len(a):], b)
	vm.ChargeElementwise(len(a)+len(b), 1)
	sorted := RadixSort(vm, comb, maxKey, 11)
	return MergeResult{Merged: sorted.Sorted, MaxContention: vm.MaxLocContention()}
}

func checkSortedNonNegative(op string, xs []int64) {
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		panic(fmt.Sprintf("algos: %s: input not sorted", op))
	}
	if len(xs) > 0 && xs[0] < 0 {
		panic(fmt.Sprintf("algos: %s: negative keys unsupported", op))
	}
}
