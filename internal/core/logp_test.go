package core

import (
	"math"
	"testing"
)

func TestFromMachine(t *testing.T) {
	m := J90()
	lp := FromMachine(m, 2)
	if lp.D != m.D || lp.P != m.Procs || lp.O != 2 || lp.G != m.G || lp.L != m.L || lp.X != m.Expansion() {
		t.Errorf("FromMachine = %+v", lp)
	}
}

func TestBulkCostRegimes(t *testing.T) {
	m := DXLogP{L: 10, O: 2, G: 1, P: 8, D: 6, X: 64}
	// Processor-bound: per-message pace is max(o,g)=2.
	if got, want := m.BulkCost(1000, 10), 2.0*1000+10+4; got != want {
		t.Errorf("processor-bound = %v, want %v", got, want)
	}
	// Bank-bound.
	if got, want := m.BulkCost(10, 1000), 6.0*1000+10+4; got != want {
		t.Errorf("bank-bound = %v, want %v", got, want)
	}
	// Plain LogP never sees the bank term.
	if got, want := m.LogPBulkCost(10), 2.0*10+10+4; got != want {
		t.Errorf("LogP = %v, want %v", got, want)
	}
	if m.LogPBulkCost(10) >= m.BulkCost(10, 1000) {
		t.Error("LogP should underpredict the contended phase")
	}
}

func TestBulkCostProfileAgreesWithBSPShape(t *testing.T) {
	// With o=0 the (d,x)-LogP bulk cost reduces to the (d,x)-BSP cost.
	mach := J90()
	lp := FromMachine(mach, 0)
	prof := Loads{N: 1 << 14, Procs: 8, Banks: 512, MaxH: 2048, MaxK: 4096}
	got := lp.BulkCostProfile(prof)
	want := mach.PredictDXBSP(prof)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("o=0 (d,x)-LogP %v != (d,x)-BSP %v", got, want)
	}
}
