package vector

import (
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

func newVM(t *testing.T, opts ...Option) *Machine {
	t.Helper()
	return New(core.J90(), opts...)
}

func TestAllocAddresses(t *testing.T) {
	vm := newVM(t)
	a := vm.Alloc(100)
	b := vm.Alloc(50)
	if a.Base == b.Base {
		t.Error("allocations share a base address")
	}
	if b.Base < a.Base+100 {
		t.Errorf("allocations overlap: a=[%d,%d) b starts %d", a.Base, a.Base+100, b.Base)
	}
}

func TestFillIotaReduce(t *testing.T) {
	vm := newVM(t)
	v := vm.Alloc(10)
	vm.Fill(v, 7)
	if got := vm.Reduce(v); got != 70 {
		t.Errorf("Reduce = %d, want 70", got)
	}
	vm.Iota(v)
	if got := vm.Reduce(v); got != 45 {
		t.Errorf("Reduce(iota) = %d, want 45", got)
	}
	if vm.Cycles() <= 0 {
		t.Error("no cycles charged")
	}
}

func TestMapOps(t *testing.T) {
	vm := newVM(t)
	a := vm.AllocInit([]int64{1, 2, 3})
	b := vm.AllocInit([]int64{10, 20, 30})
	dst := vm.Alloc(3)
	vm.Map1(dst, a, func(x int64) int64 { return x * x }, 1)
	if dst.Data[2] != 9 {
		t.Errorf("Map1 = %v", dst.Data)
	}
	vm.Map2(dst, a, b, func(x, y int64) int64 { return x + y }, 1)
	if dst.Data[1] != 22 {
		t.Errorf("Map2 = %v", dst.Data)
	}
}

func TestGatherScatterSemantics(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{10, 11, 12, 13})
	idx := vm.AllocInit([]int64{3, 0, 2, 1})
	dst := vm.Alloc(4)
	vm.Gather(dst, src, idx)
	want := []int64{13, 10, 12, 11}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("Gather: %v, want %v", dst.Data, want)
		}
	}
	out := vm.Alloc(4)
	vm.Scatter(out, src, idx)
	// out[3]=10, out[0]=11, out[2]=12, out[1]=13
	want = []int64{11, 13, 12, 10}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("Scatter: %v, want %v", out.Data, want)
		}
	}
}

func TestScatterDuplicateLastWins(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{1, 2, 3})
	idx := vm.AllocInit([]int64{0, 0, 0})
	dst := vm.Alloc(1)
	vm.Scatter(dst, src, idx)
	if dst.Data[0] != 3 {
		t.Errorf("duplicate scatter: got %d, want 3 (last wins)", dst.Data[0])
	}
}

func TestScatterAdd(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{1, 2, 3, 4})
	idx := vm.AllocInit([]int64{0, 1, 0, 1})
	dst := vm.Alloc(2)
	vm.ScatterAdd(dst, src, idx)
	if dst.Data[0] != 4 || dst.Data[1] != 6 {
		t.Errorf("ScatterAdd = %v, want [4 6]", dst.Data)
	}
}

func TestScanAdd(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{3, 1, 4, 1, 5})
	dst := vm.Alloc(5)
	vm.ScanAdd(dst, src)
	want := []int64{0, 3, 4, 8, 9}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("ScanAdd = %v, want %v", dst.Data, want)
		}
	}
}

func TestSegScanAdd(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{1, 2, 3, 4, 5})
	flags := vm.AllocInit([]int64{1, 0, 1, 0, 0})
	dst := vm.Alloc(5)
	vm.SegScanAdd(dst, src, flags)
	want := []int64{0, 1, 0, 3, 7}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("SegScanAdd = %v, want %v", dst.Data, want)
		}
	}
}

func TestPack(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{10, 20, 30, 40})
	mask := vm.AllocInit([]int64{1, 0, 1, 1})
	dst := vm.Alloc(4)
	k := vm.Pack(dst, src, mask)
	if k != 3 {
		t.Fatalf("Pack count = %d", k)
	}
	want := []int64{10, 30, 40}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("Pack = %v, want %v", dst.Data[:k], want)
		}
	}
}

func TestContentionChargesMore(t *testing.T) {
	// A scatter with all-equal indices must be charged far more than a
	// permutation scatter of the same size.
	n := 8192
	vmHot := newVM(t)
	src := vmHot.Alloc(n)
	dst := vmHot.Alloc(n)
	hotIdx := vmHot.Alloc(n) // all zeros
	vmHot.Reset()
	vmHot.Scatter(dst, src, hotIdx)
	hotCycles := vmHot.Cycles()

	vmFlat := newVM(t)
	src2 := vmFlat.Alloc(n)
	dst2 := vmFlat.Alloc(n)
	perm := rng.New(1).Perm(n)
	idxData := make([]int64, n)
	for i, v := range perm {
		idxData[i] = int64(v)
	}
	flatIdx := vmFlat.AllocInit(idxData)
	vmFlat.Reset()
	vmFlat.Scatter(dst2, src2, flatIdx)
	flatCycles := vmFlat.Cycles()

	if hotCycles < 10*flatCycles {
		t.Errorf("hot scatter %v should dwarf flat scatter %v", hotCycles, flatCycles)
	}
	if vmHot.MaxLocContention() != n {
		t.Errorf("MaxLocContention = %d, want %d", vmHot.MaxLocContention(), n)
	}
}

func TestAnalyticVsSimulateAgree(t *testing.T) {
	// The two charging modes should agree within a factor of 2 on a
	// random gather (the sim_test validates tighter bounds directly).
	n := 4096
	g := rng.New(5)
	idxData := make([]int64, n)
	for i := range idxData {
		idxData[i] = int64(g.Intn(n))
	}
	run := func(mode Mode) float64 {
		vm := New(core.J90(), WithMode(mode))
		src := vm.Alloc(n)
		dst := vm.Alloc(n)
		idx := vm.AllocInit(idxData)
		vm.Reset()
		vm.Gather(dst, src, idx)
		return vm.Cycles()
	}
	a, s := run(Analytic), run(Simulate)
	if ratio := s / a; ratio < 0.5 || ratio > 2.0 {
		t.Errorf("modes disagree: analytic=%v simulate=%v ratio=%.2f", a, s, ratio)
	}
}

func TestOpCyclesBreakdown(t *testing.T) {
	vm := newVM(t)
	v := vm.Alloc(100)
	vm.Fill(v, 1)
	idx := vm.Alloc(100)
	vm.Iota(idx)
	dst := vm.Alloc(100)
	vm.Gather(dst, v, idx)
	oc := vm.OpCycles()
	if oc["fill"] <= 0 || oc["iota"] <= 0 || oc["gather"] <= 0 {
		t.Errorf("missing op breakdown: %v", oc)
	}
	if vm.Supersteps() != 3 {
		t.Errorf("Supersteps = %d, want 3", vm.Supersteps())
	}
	vm.Reset()
	if vm.Cycles() != 0 || vm.Supersteps() != 0 || len(vm.OpCycles()) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	vm := newVM(t)
	a := vm.Alloc(4)
	b := vm.Alloc(5)
	mustPanic(t, "length mismatch", func() { vm.Map1(a, b, func(x int64) int64 { return x }, 1) })
	idx := vm.AllocInit([]int64{99})
	dst := vm.Alloc(1)
	mustPanic(t, "gather oob", func() { vm.Gather(dst, a, idx) })
	mustPanic(t, "scatter oob", func() { vm.Scatter(a, dst, idx) })
	neg := vm.AllocInit([]int64{-1})
	mustPanic(t, "negative index", func() { vm.Gather(dst, a, neg) })
	small := vm.Alloc(0)
	mask := vm.AllocInit([]int64{1})
	src := vm.AllocInit([]int64{5})
	mustPanic(t, "pack overflow", func() { vm.Pack(small, src, mask) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestNewPanicsOnInvalid(t *testing.T) {
	mustPanic(t, "invalid machine", func() { New(core.Machine{}) })
	mustPanic(t, "mismatched map", func() {
		New(core.J90(), WithBankMap(core.InterleaveMap{Banks: 3}))
	})
}

// A warm Analytic superstep allocates nothing: the machine reuses its
// address buffer and profiles the flat round-robin stream in place. Both
// sides of the location pass are covered, a dense index stream and a
// sparse one (a gather into a large array).
func TestIrregularSuperstepZeroAllocs(t *testing.T) {
	const n = 1 << 16
	g := rng.New(6)
	vm := newVM(t)
	big := vm.Alloc(1 << 20)
	src, dst := vm.Alloc(n), vm.Alloc(n)
	dense, sparse := vm.Alloc(n), vm.Alloc(n)
	for i := 0; i < n; i++ {
		dense.Data[i] = int64(g.Intn(n))
		sparse.Data[i] = int64(g.Intn(big.Len()))
	}
	step := func() {
		vm.Gather(dst, src, dense)
		vm.Scatter(dst, src, dense)
		vm.Gather(dst, big, sparse)
	}
	step()
	if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
		t.Errorf("warm Gather/Scatter: %.1f allocs per run, want 0", allocs)
	}
}
