package core

import (
	"math"
	"testing"
)

func TestFromMachine(t *testing.T) {
	m := J90()
	lp := FromMachine(m, 2)
	if err := lp.Validate(); err != nil {
		t.Fatal(err)
	}
	if lp.D != m.D || lp.P != m.Procs || lp.O != 2 {
		t.Errorf("FromMachine = %+v", lp)
	}
	if lp.Banks() != m.Banks {
		t.Errorf("Banks = %d, want %d", lp.Banks(), m.Banks)
	}
}

func TestDXLogPValidate(t *testing.T) {
	good := DXLogP{L: 10, O: 1, G: 1, P: 8, D: 6, X: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []DXLogP{
		{L: 10, O: 1, G: 1, P: 0, D: 6, X: 64},
		{L: 10, O: 1, G: 0, P: 8, D: 6, X: 64},
		{L: 10, O: 1, G: 1, P: 8, D: 0, X: 64},
		{L: 10, O: 1, G: 1, P: 8, D: 6, X: 0},
		{L: -1, O: 1, G: 1, P: 8, D: 6, X: 64},
		{L: 10, O: -1, G: 1, P: 8, D: 6, X: 64},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad[%d] accepted: %+v", i, m)
		}
	}
}

func TestBanksRounding(t *testing.T) {
	m := DXLogP{G: 1, D: 1, X: 0.01, P: 8}
	if got := m.Banks(); got != 1 {
		t.Errorf("tiny X Banks = %d, want 1", got)
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
