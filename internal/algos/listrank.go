package algos

import (
	"fmt"

	"dxbsp/internal/vector"
)

// This file implements list ranking, the second future-work algorithm the
// paper names (Reid-Miller's Cray C-90 study [RM94]): given a linked list
// as a successor array, compute each node's distance to the tail.
//
// Wyllie's pointer jumping runs lg n rounds of rank[i] += rank[next[i]];
// next[i] = next[next[i]]. Its contention structure is the interesting
// part: in early rounds every gather is a permutation (κ = 1), but as
// pointers collapse onto the tail the gathers concentrate — by the last
// round, half the nodes read the tail node, κ = Θ(n). The (d,x)-BSP
// charges those late rounds accordingly; a model without d misses them.

// ListRankResult reports a ranking run.
type ListRankResult struct {
	// Ranks[i] is the number of links from node i to the tail.
	Ranks []int64
	// Rounds is the number of pointer-jumping rounds.
	Rounds int
	// RoundContention[r] is the running maximum gather contention after
	// round r — it grows geometrically as pointers pile onto the tail.
	RoundContention []int
}

// ListRankWyllie ranks the list given by next (next[i] = successor of i;
// the tail points to itself). It panics if next is not a valid list
// structure.
func ListRankWyllie(vm *vector.Machine, next []int64) ListRankResult {
	n := len(next)
	if n == 0 {
		return ListRankResult{}
	}
	validateList(next)

	nxt := vm.AllocInit(next)
	rank := vm.Alloc(n)
	for i := range rank.Data {
		if next[i] == int64(i) {
			rank.Data[i] = 0
		} else {
			rank.Data[i] = 1
		}
	}
	vm.ChargeElementwise(n, 2)

	res := ListRankResult{}
	nr := vm.Alloc(n)
	nn := vm.Alloc(n)
	for {
		// Converged at the pointer-jumping fixpoint: every pointer's
		// target is itself a terminal (next[next[i]] == next[i]). On the
		// machine this is a gather + compare + reduce; the gather result
		// is reused below, so charge the compare/reduce pass here.
		fixed := true
		for _, v := range nxt.Data {
			if nxt.Data[v] != v {
				fixed = false
				break
			}
		}
		vm.ChargeElementwise(n, 2)
		if fixed {
			break
		}
		res.Rounds++

		vm.Gather(nr, rank, nxt) // rank[next[i]]
		vm.Gather(nn, nxt, nxt)  // next[next[i]]
		res.RoundContention = append(res.RoundContention, vm.MaxLocContention())

		vm.Map2(rank, rank, nr, func(a, b int64) int64 { return a + b }, 1)
		vm.Map1(nxt, nn, func(x int64) int64 { return x }, 0)
	}
	res.Ranks = append([]int64(nil), rank.Data...)
	return res
}

// MakeList builds the successor array of a single list over nodes 0..n-1
// visiting them in the order given by perm (perm[k] is the k-th node in
// list order; the last one is the tail, pointing to itself).
func MakeList(perm []int64) []int64 {
	n := len(perm)
	if n == 0 {
		return nil
	}
	if !IsPermutation(perm) {
		panic("algos: MakeList requires a permutation")
	}
	next := make([]int64, n)
	for k := 0; k+1 < n; k++ {
		next[perm[k]] = perm[k+1]
	}
	next[perm[n-1]] = perm[n-1]
	return next
}

func validateList(next []int64) {
	n := len(next)
	tails := 0
	indeg := make([]int, n)
	for i, v := range next {
		if v < 0 || v >= int64(n) {
			panic(fmt.Sprintf("algos: list: next[%d]=%d out of range", i, v))
		}
		if v == int64(i) {
			tails++
		} else {
			indeg[v]++
		}
	}
	if tails == 0 {
		panic("algos: list has no tail (self-loop)")
	}
	for i, d := range indeg {
		if d > 1 {
			panic(fmt.Sprintf("algos: node %d has in-degree %d; not a list", i, d))
		}
	}
}
