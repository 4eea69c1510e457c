package vector

import (
	"testing"

	"dxbsp/internal/core"
)

func TestBroadcastSemantics(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{7, 8, 9})
	dst := vm.Alloc(100)
	vm.Broadcast(dst, src, 1)
	for _, v := range dst.Data {
		if v != 8 {
			t.Fatalf("Broadcast value %d, want 8", v)
		}
	}
	if vm.MaxLocContention() != 100 {
		t.Errorf("naive broadcast contention = %d, want 100", vm.MaxLocContention())
	}
}

func TestReplicatedBroadcastSemanticsAndContention(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{5})
	dst := vm.Alloc(4096)
	scratch := vm.Alloc(vm.Mach().Procs)
	vm.ReplicatedBroadcast(dst, src, 0, scratch)
	for _, v := range dst.Data {
		if v != 5 {
			t.Fatalf("ReplicatedBroadcast value %d, want 5", v)
		}
	}
	// Contention bounded by n/p (plus small tree steps).
	if got, want := vm.MaxLocContention(), 4096/vm.Mach().Procs; got > want {
		t.Errorf("replicated broadcast contention = %d, want <= %d", got, want)
	}
}

func TestReplicatedBroadcastCheaper(t *testing.T) {
	n := 1 << 14
	vmA := newVM(t)
	src := vmA.AllocInit([]int64{1})
	dst := vmA.Alloc(n)
	vmA.Reset()
	vmA.Broadcast(dst, src, 0)
	naive := vmA.Cycles()

	vmB := newVM(t)
	src2 := vmB.AllocInit([]int64{1})
	dst2 := vmB.Alloc(n)
	scratch := vmB.Alloc(vmB.Mach().Procs)
	vmB.Reset()
	vmB.ReplicatedBroadcast(dst2, src2, 0, scratch)
	repl := vmB.Cycles()

	if repl >= naive/5 {
		t.Errorf("replicated %v should be far below naive %v", repl, naive)
	}
}

func TestReplicatedBroadcastPanics(t *testing.T) {
	vm := newVM(t)
	src := vm.AllocInit([]int64{1})
	dst := vm.Alloc(4)
	small := vm.Alloc(1)
	mustPanic(t, "small scratch", func() { vm.ReplicatedBroadcast(dst, src, 0, small) })
	scratch := vm.Alloc(vm.Mach().Procs)
	mustPanic(t, "bad index", func() { vm.ReplicatedBroadcast(dst, src, 9, scratch) })
}

func TestTraceObservesIrregularOps(t *testing.T) {
	var ops []string
	var totalCycles float64
	vm := New(core.J90(), WithTrace(func(op string, prof core.Profile, cycles float64) {
		ops = append(ops, op)
		totalCycles += cycles
	}))
	src := vm.AllocInit([]int64{1, 2, 3, 4})
	idx := vm.AllocInit([]int64{0, 1, 2, 3})
	dst := vm.Alloc(4)
	vm.Gather(dst, src, idx)
	vm.Scatter(dst, src, idx)
	vm.Fill(dst, 0) // stride-only: not traced
	if len(ops) != 2 || ops[0] != "gather" || ops[1] != "scatter" {
		t.Errorf("traced ops = %v", ops)
	}
	if totalCycles <= 0 {
		t.Error("trace saw no cycles")
	}
}

func TestSetTraceReturnsPrevious(t *testing.T) {
	vm := newVM(t)
	calls := 0
	f := func(op string, prof core.Profile, cycles float64) { calls++ }
	if prev := vm.SetTrace(f); prev != nil {
		t.Error("fresh machine had a trace")
	}
	src := vm.AllocInit([]int64{1})
	idx := vm.AllocInit([]int64{0})
	dst := vm.Alloc(1)
	vm.Gather(dst, src, idx)
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
	old := vm.SetTrace(nil)
	if old == nil {
		t.Error("SetTrace did not return the installed trace")
	}
	vm.Gather(dst, src, idx)
	if calls != 1 {
		t.Error("removed trace still fired")
	}
}

func TestChargeElementwise(t *testing.T) {
	vm := newVM(t)
	before := vm.Cycles()
	vm.ChargeElementwise(8000, 1)
	bandwidth := vm.Cycles() - before
	// 2 streams at g=1 over 8000 elements on 8 procs = 2000 cycles.
	if bandwidth != 2000 {
		t.Errorf("bandwidth-bound charge = %v, want 2000", bandwidth)
	}
	before = vm.Cycles()
	vm.ChargeElementwise(8000, 10)
	compute := vm.Cycles() - before
	// compute-bound: 10*8000/8 = 10000.
	if compute != 10000 {
		t.Errorf("compute-bound charge = %v, want 10000", compute)
	}
}
