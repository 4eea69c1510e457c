package algos

import (
	"fmt"
	"sort"

	"dxbsp/internal/rng"
	"dxbsp/internal/vector"
)

// This file implements the paper's binary-search experiment (F10): n keys
// are looked up in a balanced binary search tree of size m. The QRQW
// algorithm [GMR94a] replicates nodes near the root and picks a random
// replica at each level, trading a little memory and randomness for
// bounded contention; the EREW baseline sorts the queries against the
// dictionary. A naive unreplicated descent — whose root sees all n
// queries, contention κ = n — is included to show what the replication
// buys.

// SearchTree is a perfect binary search tree over a sorted dictionary,
// stored level by level with per-level replication.
type SearchTree struct {
	vm     *vector.Machine
	levels []*vector.Vec // levels[l]: replicas*width keys
	repls  []int         // replicas per level
	widths []int         // nodes per level (2^l)
	height int
	m      int // real dictionary size (before padding)
}

// BuildSearchTree builds a perfect BST over dict (which must be sorted
// ascending) with replication factor r: level l holds max(1, r/2^l) copies
// of its nodes, so that with n simultaneous random descents the expected
// contention per node copy is about n/r at every replicated level. r = 1
// gives the naive unreplicated tree. The dictionary is padded to 2^h - 1
// entries with +inf sentinels.
func BuildSearchTree(vm *vector.Machine, dict []int64, r int) *SearchTree {
	if len(dict) == 0 {
		panic("algos: BuildSearchTree on empty dictionary")
	}
	if r < 1 {
		panic(fmt.Sprintf("algos: BuildSearchTree replication %d < 1", r))
	}
	if !sort.SliceIsSorted(dict, func(i, j int) bool { return dict[i] < dict[j] }) {
		panic("algos: BuildSearchTree requires a sorted dictionary")
	}
	height := 1
	for (1<<height)-1 < len(dict) {
		height++
	}
	size := (1 << height) - 1
	const inf = int64(1) << 62
	padded := make([]int64, size)
	copy(padded, dict)
	for i := len(dict); i < size; i++ {
		padded[i] = inf
	}

	t := &SearchTree{vm: vm, height: height, m: len(dict)}
	for l := 0; l < height; l++ {
		width := 1 << l
		repl := 1
		if r > width {
			repl = r / width
		}
		lv := vm.Alloc(width * repl)
		for j := 0; j < width; j++ {
			// In-order rank of node (l, j) in a perfect tree of height h:
			// j*2^(h-l) + 2^(h-l-1) - 1.
			rank := j*(1<<(height-l)) + (1 << (height - l - 1)) - 1
			key := padded[rank]
			for c := 0; c < repl; c++ {
				lv.Data[c*width+j] = key
			}
		}
		t.levels = append(t.levels, lv)
		t.repls = append(t.repls, repl)
		t.widths = append(t.widths, width)
	}
	// Building the tree is a handful of bulk copies; charge one pass over
	// the replicated storage.
	total := 0
	for _, lv := range t.levels {
		total += lv.Len()
	}
	vm.ChargeElementwise(total, 1)
	return t
}

// SearchResult reports a batched tree-search run.
type SearchResult struct {
	// Ranks[i] is the number of dictionary keys <= queries[i], minus one:
	// the index of the predecessor in the sorted dictionary, or -1.
	Ranks []int64
	// MaxContention is the largest per-location contention of any level's
	// gather.
	MaxContention int
}

// Search looks up all queries simultaneously, level by level: at each
// level every outstanding query picks a uniformly random replica of its
// current node, gathers the node key, and descends. The per-level
// contention is ~n/(width*repl), which the (d,x)-BSP charges via the
// gather's profile.
func (t *SearchTree) Search(queries []int64, g *rng.Xoshiro256) SearchResult {
	vm := t.vm
	n := len(queries)
	res := SearchResult{Ranks: make([]int64, n)}
	if n == 0 {
		return res
	}
	q := vm.AllocInit(queries)
	node := make([]int64, n) // index-in-level of each query's current node
	lo := make([]int64, n)   // number of dictionary keys known <= query
	idx := vm.Alloc(n)
	keys := vm.Alloc(n)

	before := vm.MaxLocContention()
	for l := 0; l < t.height; l++ {
		width, repl := t.widths[l], t.repls[l]
		// Random replica choice per query, then gather node keys.
		for i := 0; i < n; i++ {
			c := 0
			if repl > 1 {
				c = g.Intn(repl)
			}
			idx.Data[i] = int64(c*width) + node[i]
		}
		vm.ChargeElementwise(n, 3)
		vm.Gather(keys, t.levels[l], idx)

		// Descend; update in-order rank bound.
		half := int64(1) << (t.height - l - 1)
		for i := 0; i < n; i++ {
			if q.Data[i] >= keys.Data[i] {
				lo[i] += half
				node[i] = node[i]*2 + 1
			} else {
				node[i] = node[i] * 2
			}
		}
		vm.ChargeElementwise(n, 3)
	}
	for i := 0; i < n; i++ {
		r := lo[i] - 1
		if r >= int64(t.m) {
			r = int64(t.m) - 1
		}
		res.Ranks[i] = r
	}
	vm.ChargeElementwise(n, 2)
	res.MaxContention = vm.MaxLocContention()
	if before > res.MaxContention {
		res.MaxContention = before
	}
	return res
}

// SearchEREW answers the same predecessor queries the EREW way: sort the
// queries together with the dictionary ([ZB91] radix sort on key values,
// dictionary entries ordered before equal queries), sweep once to
// propagate the latest dictionary rank, and scatter answers back to query
// order (a contention-free permutation).
func SearchEREW(vm *vector.Machine, dict, queries []int64, maxKey int64) SearchResult {
	n, m := len(queries), len(dict)
	res := SearchResult{Ranks: make([]int64, n)}
	if n == 0 {
		return res
	}
	if !sort.SliceIsSorted(dict, func(i, j int) bool { return dict[i] < dict[j] }) {
		panic("algos: SearchEREW requires a sorted dictionary")
	}
	// Combined keys: key*2 | isQuery. Dictionary first so that stability
	// puts a dictionary entry before the queries equal to it.
	comb := vm.Alloc(m + n)
	for i, k := range dict {
		comb.Data[i] = k * 2
	}
	for i, k := range queries {
		comb.Data[m+i] = k*2 + 1
	}
	vm.ChargeElementwise(m+n, 2)

	sorted := RadixSort(vm, comb, maxKey*2+1, 11)

	// inv[pos] = original combined index at sorted position pos.
	inv := make([]int64, m+n)
	for orig, pos := range sorted.Ranks {
		inv[pos] = int64(orig)
	}
	// Sweep: propagate the most recent dictionary rank. On the machine
	// this is a copy-scan (max-scan); charge accordingly.
	ansByQuery := vm.Alloc(n)
	carry := int64(-1)
	for pos := 0; pos < m+n; pos++ {
		orig := inv[pos]
		if orig < int64(m) {
			carry = orig
		} else {
			ansByQuery.Data[orig-int64(m)] = carry
		}
	}
	vm.ChargeElementwise(m+n, 4)
	copy(res.Ranks, ansByQuery.Data)
	res.MaxContention = vm.MaxLocContention()
	return res
}
