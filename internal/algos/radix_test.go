package algos

import (
	"sort"
	"testing"
	"testing/quick"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
	"dxbsp/internal/vector"
)

func newVM() *vector.Machine {
	return vector.New(core.J90())
}

func TestRadixSortSortsRandom(t *testing.T) {
	vm := newVM()
	g := rng.New(1)
	n := 4096
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(g.Intn(100000))
	}
	v := vm.AllocInit(data)
	res := RadixSort(vm, v, 100000, 11)

	want := append([]int64(nil), data...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if res.Sorted[i] != want[i] {
			t.Fatalf("Sorted[%d] = %d, want %d", i, res.Sorted[i], want[i])
		}
	}
	// Ranks must be the inverse placement: data[i] ends at Ranks[i].
	for i, r := range res.Ranks {
		if res.Sorted[r] != data[i] {
			t.Fatalf("Ranks[%d]=%d but Sorted there is %d, want %d", i, r, res.Sorted[r], data[i])
		}
	}
	if vm.Cycles() <= 0 {
		t.Error("no cycles charged")
	}
}

func TestRadixSortStable(t *testing.T) {
	// Keys with many duplicates: equal keys must keep input order.
	vm := newVM()
	g := rng.New(2)
	n := 2000
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(g.Intn(7)) // heavy duplication
	}
	v := vm.AllocInit(data)
	res := RadixSort(vm, v, 6, 4)
	// For every pair i<j with equal keys, rank[i] < rank[j].
	lastRank := map[int64]int64{}
	for i := 0; i < n; i++ {
		k := data[i]
		if r, ok := lastRank[k]; ok && res.Ranks[i] <= r {
			t.Fatalf("instability at key %d: rank %d after %d", k, res.Ranks[i], r)
		}
		lastRank[k] = res.Ranks[i]
	}
}

func TestRadixSortEdgeCases(t *testing.T) {
	vm := newVM()
	// Single element.
	one := vm.AllocInit([]int64{42})
	res := RadixSort(vm, one, 42, 8)
	if res.Sorted[0] != 42 || res.Ranks[0] != 0 {
		t.Errorf("single: %+v", res)
	}
	// All equal.
	eq := vm.AllocInit([]int64{5, 5, 5, 5})
	res = RadixSort(vm, eq, 5, 8)
	for i, r := range res.Ranks {
		if r != int64(i) {
			t.Errorf("all-equal stability: Ranks = %v", res.Ranks)
			break
		}
	}
	// All zero keys (maxKey 0): one pass, identity.
	z := vm.AllocInit([]int64{0, 0, 0})
	res = RadixSort(vm, z, 0, 8)
	if res.Passes != 1 {
		t.Errorf("zero keys: %d passes", res.Passes)
	}
}

func TestRadixSortPassCount(t *testing.T) {
	vm := newVM()
	v := vm.AllocInit([]int64{1, 2, 3})
	res := RadixSort(vm, v, (1<<22)-1, 11)
	if res.Passes != 2 {
		t.Errorf("Passes = %d, want 2 for 22-bit keys at 11 bits/digit", res.Passes)
	}
}

func TestRadixSortPanics(t *testing.T) {
	vm := newVM()
	v := vm.AllocInit([]int64{1})
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"digitBits 0", func() { RadixSort(vm, v, 1, 0) }},
		{"digitBits 17", func() { RadixSort(vm, v, 1, 17) }},
		{"negative maxKey", func() { RadixSort(vm, v, -1, 8) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestRadixSortProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		g := rng.New(seed)
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(g.Intn(1 << 16))
		}
		vm := newVM()
		v := vm.AllocInit(data)
		res := RadixSort(vm, v, (1<<16)-1, 8)
		if !sort.SliceIsSorted(res.Sorted, func(i, j int) bool { return res.Sorted[i] < res.Sorted[j] }) {
			return false
		}
		if !IsPermutation(res.Ranks) {
			return false
		}
		for i, r := range res.Ranks {
			if res.Sorted[r] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortContentionBounded(t *testing.T) {
	// The point of the [ZB91] formulation: with per-processor buckets,
	// no superstep sees contention anywhere near n.
	vm := newVM()
	g := rng.New(3)
	n := 1 << 14
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(g.Intn(1 << 22))
	}
	v := vm.AllocInit(data)
	RadixSort(vm, v, (1<<22)-1, 11)
	if vm.MaxLocContention() > n/64 {
		t.Errorf("radix sort contention %d too high for n=%d", vm.MaxLocContention(), n)
	}
}

// RadixSort's allocations do not grow with its digit passes: every
// per-pass buffer, the running ranks included, is allocated once per
// sort. One 8-bit pass and four cost the same number of allocations.
func TestRadixSortAllocsIndependentOfPasses(t *testing.T) {
	vm := newVM()
	g := rng.New(5)
	data := make([]int64, 1024)
	for i := range data {
		data[i] = int64(g.Intn(1 << 8))
	}
	v := vm.AllocInit(data)
	allocs := func(maxKey int64, wantPasses int) float64 {
		if p := RadixSort(vm, v, maxKey, 8).Passes; p != wantPasses {
			t.Fatalf("maxKey %d: %d passes, want %d", maxKey, p, wantPasses)
		}
		return testing.AllocsPerRun(20, func() { RadixSort(vm, v, maxKey, 8) })
	}
	one, four := allocs(1<<8-1, 1), allocs(1<<32-1, 4)
	if one != four {
		t.Errorf("allocs per sort: %v with 1 pass, %v with 4 passes", one, four)
	}
}
