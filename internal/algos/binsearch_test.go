package algos

import (
	"sort"
	"testing"

	"dxbsp/internal/rng"
)

func sortedDict(m int, g *rng.Xoshiro256) []int64 {
	d := make([]int64, m)
	for i := range d {
		d[i] = int64(g.Intn(1 << 20))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func TestSerialPredecessor(t *testing.T) {
	dict := []int64{10, 20, 20, 30}
	qs := []int64{5, 10, 15, 20, 25, 30, 99}
	want := []int64{-1, 0, 0, 2, 2, 3, 3}
	got := SerialPredecessor(dict, qs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d: got %d, want %d", qs[i], got[i], want[i])
		}
	}
}

func TestTreeSearchMatchesSerial(t *testing.T) {
	g := rng.New(1)
	dict := sortedDict(1000, g)
	queries := make([]int64, 500)
	for i := range queries {
		queries[i] = int64(g.Intn(1 << 20))
	}
	want := SerialPredecessor(dict, queries)
	for _, r := range []int{1, 8, 64} {
		vm := newVM()
		tree := BuildSearchTree(vm, dict, r)
		res := tree.Search(queries, rng.New(2))
		for i := range want {
			if res.Ranks[i] != want[i] {
				t.Fatalf("r=%d query[%d]=%d: got %d, want %d", r, i, queries[i], res.Ranks[i], want[i])
			}
		}
	}
}

func TestTreeSearchDuplicateKeys(t *testing.T) {
	dict := []int64{5, 5, 5, 5, 5, 5, 5}
	vm := newVM()
	tree := BuildSearchTree(vm, dict, 4)
	res := tree.Search([]int64{4, 5, 6}, rng.New(3))
	want := []int64{-1, 6, 6}
	for i := range want {
		if res.Ranks[i] != want[i] {
			t.Errorf("dup dict query %d: got %d, want %d", i, res.Ranks[i], want[i])
		}
	}
}

func TestTreeSearchEmptyQueries(t *testing.T) {
	vm := newVM()
	tree := BuildSearchTree(vm, []int64{1, 2, 3}, 2)
	res := tree.Search(nil, rng.New(1))
	if len(res.Ranks) != 0 {
		t.Error("non-empty result for no queries")
	}
}

func TestReplicationCutsContention(t *testing.T) {
	g := rng.New(4)
	dict := sortedDict(1023, g)
	n := 8192
	queries := make([]int64, n)
	for i := range queries {
		queries[i] = int64(g.Intn(1 << 20))
	}
	contention := func(r int) int {
		vm := newVM()
		tree := BuildSearchTree(vm, dict, r)
		return tree.Search(queries, rng.New(5)).MaxContention
	}
	c1 := contention(1)
	c64 := contention(64)
	if c1 != n {
		t.Errorf("unreplicated root contention = %d, want %d", c1, n)
	}
	if c64 > c1/16 {
		t.Errorf("replication 64 should cut contention: %d vs %d", c64, c1)
	}
}

func TestReplicationCutsCycles(t *testing.T) {
	// F10's headline: replicated QRQW search is much cheaper than the
	// naive descent once n is large.
	g := rng.New(6)
	dict := sortedDict(1023, g)
	n := 1 << 14
	queries := make([]int64, n)
	for i := range queries {
		queries[i] = int64(g.Intn(1 << 20))
	}
	cycles := func(r int) float64 {
		vm := newVM()
		tree := BuildSearchTree(vm, dict, r)
		vm.Reset()
		tree.Search(queries, rng.New(7))
		return vm.Cycles()
	}
	naive := cycles(1)
	repl := cycles(256)
	// Replication removes the contention term; what remains is bandwidth,
	// so the gain is bounded but must be substantial.
	if repl >= naive/2.5 {
		t.Errorf("replicated %v cycles, naive %v: want >= 2.5x improvement", repl, naive)
	}
}

func TestSearchEREWMatchesSerial(t *testing.T) {
	g := rng.New(8)
	dict := sortedDict(700, g)
	queries := make([]int64, 300)
	for i := range queries {
		queries[i] = int64(g.Intn(1 << 20))
	}
	want := SerialPredecessor(dict, queries)
	vm := newVM()
	res := SearchEREW(vm, dict, queries, 1<<20)
	for i := range want {
		if res.Ranks[i] != want[i] {
			t.Fatalf("query[%d]=%d: got %d, want %d", i, queries[i], res.Ranks[i], want[i])
		}
	}
}

func TestSearchEREWEdge(t *testing.T) {
	vm := newVM()
	res := SearchEREW(vm, []int64{5}, nil, 10)
	if len(res.Ranks) != 0 {
		t.Error("non-empty result for no queries")
	}
	// Query below all dict keys.
	res = SearchEREW(newVM(), []int64{10, 20}, []int64{1}, 30)
	if res.Ranks[0] != -1 {
		t.Errorf("below-all query: %d, want -1", res.Ranks[0])
	}
}

func TestQRQWSearchBeatsEREW(t *testing.T) {
	// The replicated tree search beats the sort-based EREW lookup when
	// the dictionary is large relative to the query batch: the EREW
	// algorithm must sort all m+n keys, the QRQW one only touches
	// n*lg(m). (With m << n the sort wins — that crossover is the
	// content of experiment F10.)
	g := rng.New(9)
	dict := sortedDict((1<<17)-1, g)
	n := 1 << 13
	queries := make([]int64, n)
	for i := range queries {
		queries[i] = int64(g.Intn(1 << 20))
	}
	vmQ := newVM()
	tree := BuildSearchTree(vmQ, dict, 256)
	vmQ.Reset()
	tree.Search(queries, rng.New(10))

	vmE := newVM()
	SearchEREW(vmE, dict, queries, 1<<20)

	if vmQ.Cycles() >= vmE.Cycles() {
		t.Errorf("QRQW search %v cycles should beat EREW %v", vmQ.Cycles(), vmE.Cycles())
	}
}

func TestBuildSearchTreePanics(t *testing.T) {
	for _, f := range []func(){
		func() { BuildSearchTree(newVM(), nil, 1) },
		func() { BuildSearchTree(newVM(), []int64{1}, 0) },
		func() { BuildSearchTree(newVM(), []int64{2, 1}, 1) },
		func() { SearchEREW(newVM(), []int64{2, 1}, []int64{1}, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// SerialPredecessor is the reference answer: for each query, the index of
// the largest dict key <= query, or -1. dict must be sorted.
func SerialPredecessor(dict, queries []int64) []int64 {
	out := make([]int64, len(queries))
	for i, q := range queries {
		lo, hi := 0, len(dict) // predecessor index+1 in [lo,hi]
		for lo < hi {
			mid := (lo + hi) / 2
			if dict[mid] <= q {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = int64(lo) - 1
	}
	return out
}
