package core

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestExpansion(t *testing.T) {
	m := Machine{Procs: 8, Banks: 512}
	if x := m.Expansion(); x != 64 {
		t.Errorf("Expansion() = %v, want 64", x)
	}
	if x := (Machine{}).Expansion(); x != 0 {
		t.Errorf("zero machine Expansion() = %v, want 0", x)
	}
}

func TestValidate(t *testing.T) {
	good := Machine{Name: "m", Procs: 4, Banks: 16, D: 2, G: 1, L: 0}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid machine rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"no procs", func(m *Machine) { m.Procs = 0 }},
		{"negative procs", func(m *Machine) { m.Procs = -1 }},
		{"no banks", func(m *Machine) { m.Banks = 0 }},
		{"zero delay", func(m *Machine) { m.D = 0 }},
		{"zero gap", func(m *Machine) { m.G = 0 }},
		{"negative latency", func(m *Machine) { m.L = -1 }},
		{"sections without gap", func(m *Machine) { m.Sections = 4; m.SectionGap = 0 }},
		{"more sections than banks", func(m *Machine) { m.Sections = 32; m.SectionGap = 1 }},
	}
	for _, tc := range cases {
		m := good
		tc.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

// Non-finite delays used to slip past the sign checks (NaN compares
// false with everything, +Inf is positive); each must be rejected with a
// *MachineError naming the field.
func TestValidateRejectsNonFinite(t *testing.T) {
	good := Machine{Name: "m", Procs: 4, Banks: 16, D: 2, G: 1, L: 0, Sections: 2, SectionGap: 1}
	for _, tc := range []struct {
		field string
		mut   func(*Machine, float64)
	}{
		{"D", func(m *Machine, v float64) { m.D = v }},
		{"G", func(m *Machine, v float64) { m.G = v }},
		{"L", func(m *Machine, v float64) { m.L = v }},
		{"SectionGap", func(m *Machine, v float64) { m.SectionGap = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			m := good
			tc.mut(&m, v)
			var me *MachineError
			if err := m.Validate(); !errors.As(err, &me) || me.Field != tc.field {
				t.Errorf("%s = %g: got %v, want a *MachineError on %s", tc.field, v, err, tc.field)
			}
		}
	}
}

func TestSuperstepCost(t *testing.T) {
	m := Machine{Procs: 8, Banks: 64, D: 6, G: 1, L: 100}
	// Bandwidth-bound: g*h dominates.
	if got := m.SuperstepCost(1000, 10); got != 1000+100 {
		t.Errorf("bandwidth-bound cost = %v, want 1100", got)
	}
	// Contention-bound: d*k dominates.
	if got := m.SuperstepCost(10, 1000); got != 6000+100 {
		t.Errorf("contention-bound cost = %v, want 6100", got)
	}
	// BSP ignores k entirely.
	if got := m.BSPCost(10); got != 110 {
		t.Errorf("BSPCost = %v, want 110", got)
	}
}

func TestEffectiveBankGap(t *testing.T) {
	m := Machine{Procs: 8, Banks: 512, D: 14, G: 1}
	want := 14.0 / 64.0
	if got := m.EffectiveBankGap(); math.Abs(got-want) > 1e-12 {
		t.Errorf("EffectiveBankGap = %v, want %v", got, want)
	}
	if !m.BandwidthMatched() {
		t.Error("x=64 >= d/g=14 should be bandwidth matched")
	}
	low := Machine{Procs: 8, Banks: 32, D: 14, G: 1} // x = 4 < 14
	if low.BandwidthMatched() {
		t.Error("x=4 < d/g=14 should NOT be bandwidth matched")
	}
}

func TestContentionCrossover(t *testing.T) {
	m := J90() // p=8, d=14, g=1
	n := 65536
	want := float64(n) / (8 * 14)
	if got := m.ContentionCrossover(n); math.Abs(got-want) > 1e-9 {
		t.Errorf("crossover = %v, want %v", got, want)
	}
	// Sanity: patterns with contention below crossover cost the same as flat.
	kBelow := int(want / 2)
	kAbove := int(want * 4)
	h := n / m.Procs
	if m.SuperstepCost(h, kBelow) != m.BSPCost(h) {
		t.Error("below crossover, (d,x)-BSP should equal BSP")
	}
	if m.SuperstepCost(h, kAbove) <= m.BSPCost(h) {
		t.Error("above crossover, (d,x)-BSP should exceed BSP")
	}
}

func TestWithExpansion(t *testing.T) {
	m := C90()
	for _, x := range []float64{1, 2, 6, 64, 128} {
		mx := m.WithExpansion(x)
		if got := mx.Expansion(); math.Abs(got-x) > 0.01 {
			t.Errorf("WithExpansion(%v).Expansion() = %v", x, got)
		}
		if mx.D != m.D || mx.Procs != m.Procs {
			t.Errorf("WithExpansion changed d or p: %+v", mx)
		}
	}
	// Tiny expansion never yields zero banks.
	if got := m.WithExpansion(0.0001).Banks; got < 1 {
		t.Errorf("WithExpansion(0.0001).Banks = %d, want >= 1", got)
	}
}

func TestWithProcs(t *testing.T) {
	m := C90()
	m2 := m.WithProcs(4)
	if m2.Procs != 4 {
		t.Fatalf("Procs = %d", m2.Procs)
	}
	if math.Abs(m2.Expansion()-m.Expansion()) > 0.01 {
		t.Errorf("expansion changed: %v -> %v", m.Expansion(), m2.Expansion())
	}
}

func TestCatalogueExpansionsExceedOne(t *testing.T) {
	for _, m := range Catalogue() {
		if err := m.Validate(); err != nil {
			t.Errorf("catalogue machine invalid: %v", err)
		}
		if m.Expansion() <= 1 {
			t.Errorf("%s: expansion %v <= 1; Table 1's premise is banks >> processors", m.Name, m.Expansion())
		}
	}
}

func TestExperimentMachines(t *testing.T) {
	c, j := C90(), J90()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.D != 6 {
		t.Errorf("C90 delay = %v, want 6 (SRAM)", c.D)
	}
	if j.D != 14 {
		t.Errorf("J90 delay = %v, want 14 (DRAM)", j.D)
	}
	if c.Procs != 8 || j.Procs != 8 {
		t.Error("experiment machines are 8-processor systems")
	}
}

func TestLookupMachine(t *testing.T) {
	if m, ok := LookupMachine("J90"); !ok || m.D != 14 {
		t.Errorf("LookupMachine(J90) = %+v, %v", m, ok)
	}
	if m, ok := LookupMachine("Tera MTA"); !ok || m.Procs != 256 {
		t.Errorf("LookupMachine(Tera MTA) = %+v, %v", m, ok)
	}
	if _, ok := LookupMachine("ENIAC"); ok {
		t.Error("LookupMachine(ENIAC) should fail")
	}
}

func TestMachineString(t *testing.T) {
	s := J90().String()
	for _, want := range []string{"J90", "p=8", "d=14"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
