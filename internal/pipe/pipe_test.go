package pipe

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := (Config{VL: 0}).Validate(); err == nil {
		t.Error("VL=0 accepted")
	}
	if err := (Config{VL: 64, Startup: -1}).Validate(); err == nil {
		t.Error("negative startup accepted")
	}
	if err := J90Unit().Validate(); err != nil {
		t.Error(err)
	}
	if err := C90Unit().Validate(); err != nil {
		t.Error(err)
	}
}

func TestRunEmpty(t *testing.T) {
	c, err := Run(J90Unit(), nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 0 {
		t.Errorf("empty kernel cycles = %v", c.Cycles)
	}
	c, err = Run(J90Unit(), elementwiseKernel(1, 0, 1, 0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 0 || c.Strips != 0 {
		t.Errorf("n=0: %+v", c)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{}, nil, 10); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Run(J90Unit(), nil, -1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := Run(J90Unit(), Kernel{{Unit: Unit(99)}}, 10); err == nil {
		t.Error("bad unit accepted")
	}
}

func TestChainedSingleInstruction(t *testing.T) {
	// One vload over exactly 10 strips: 10*VL + 10*startup cycles.
	cfg := J90Unit()
	n := 10 * cfg.VL
	c, err := Run(cfg, elementwiseKernel(1, 0, 0, 0, 0), n)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) + 10*cfg.Startup
	if c.Cycles != want {
		t.Errorf("cycles = %v, want %v", c.Cycles, want)
	}
	if c.Strips != 10 {
		t.Errorf("strips = %d", c.Strips)
	}
	if c.Bottleneck != UnitLoad {
		t.Errorf("bottleneck = %v", c.Bottleneck)
	}
}

func TestChainingOverlapsClasses(t *testing.T) {
	// load+mul+add+store, one of each, chained: cost per strip = one
	// class's VL (all overlap), so ~1 cycle/element.
	cfg := J90Unit()
	n := 64 * 64
	k := Kernel{
		{UnitLoad, "vload"}, {UnitMul, "vmul"},
		{UnitAdd, "vadd"}, {UnitStore, "vstore"},
	}
	c, err := Run(cfg, k, n)
	if err != nil {
		t.Fatal(err)
	}
	per := c.CyclesPerElement(n)
	if per < 1.0 || per > 1.2 {
		t.Errorf("chained mixed kernel %v cycles/element, want ~1", per)
	}

	// Unchained: 4 serial instructions → ~4 cycles/element.
	cfg.Chaining = false
	c, err = Run(cfg, k, n)
	if err != nil {
		t.Fatal(err)
	}
	per = c.CyclesPerElement(n)
	if per < 4.0 || per > 4.5 {
		t.Errorf("unchained kernel %v cycles/element, want ~4", per)
	}
}

func TestPortPressure(t *testing.T) {
	// Two loads on the J90's single port: 2 cycles/element. Same kernel
	// on the C90's two ports: 1 cycle/element.
	k := elementwiseKernel(2, 0, 0, 0, 0)
	n := 1 << 14
	j, err := Run(J90Unit(), k, n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(C90Unit(), k, n)
	if err != nil {
		t.Fatal(err)
	}
	jPer, cPer := j.CyclesPerElement(n), c.CyclesPerElement(n)
	if jPer < 2.0 || jPer > 2.3 {
		t.Errorf("J90 two-load kernel = %v, want ~2", jPer)
	}
	if cPer < 1.0 || cPer > 1.2 {
		t.Errorf("C90 two-load kernel = %v, want ~1", cPer)
	}
	if j.Bottleneck != UnitLoad {
		t.Errorf("bottleneck = %v", j.Bottleneck)
	}
}

func TestHashKernelOrdering(t *testing.T) {
	// Pipeline costs of the hash kernels must be non-decreasing in degree
	// and strictly separate cubic from linear. Note the pipeline-model
	// finding: with chaining, the LINEAR hash is free — its one multiply
	// and one shift hide entirely behind the address load, so h1 costs
	// the same as no hashing at all. Higher degrees saturate the multiply
	// unit and surface in the cost, as in the paper's Table 3.
	cfg := J90Unit()
	n := 1 << 14
	var costs []float64
	for _, mix := range [][3]int{{0, 0, 0}, {1, 0, 1}, {2, 2, 1}, {3, 3, 1}} {
		c, err := Run(cfg, HashKernel(mix[0], mix[1], mix[2]), n)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c.CyclesPerElement(n))
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[i-1] {
			t.Errorf("cost decreased at mix %d: %v", i, costs)
		}
	}
	if costs[0] != costs[1] {
		t.Errorf("chained linear hash should be free: identity %v vs linear %v", costs[0], costs[1])
	}
	if costs[3] <= costs[1]*1.5 {
		t.Errorf("cubic %v should clearly exceed linear %v", costs[3], costs[1])
	}
}

func TestPartialStrip(t *testing.T) {
	// n = VL + 1: one full strip plus a 1-element strip.
	cfg := J90Unit()
	cfg.Startup = 0
	n := cfg.VL + 1
	c, err := Run(cfg, elementwiseKernel(1, 0, 0, 0, 0), n)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.VL) + float64(cfg.VL)*1/float64(cfg.VL)
	if math.Abs(c.Cycles-want) > 1e-9 {
		t.Errorf("partial strip cycles = %v, want %v", c.Cycles, want)
	}
}

func TestUnitString(t *testing.T) {
	if UnitMul.String() != "mul" || UnitStore.String() != "store" {
		t.Error("unit names wrong")
	}
	if Unit(42).String() != "unit(42)" {
		t.Error("unknown unit name")
	}
}

func TestRunMonotoneProperty(t *testing.T) {
	// More instructions never make a kernel faster; more elements never
	// cost less.
	cfg := J90Unit()
	f := func(loads, adds uint8, nRaw uint16) bool {
		l, a := int(loads%4), int(adds%4)
		n := int(nRaw%4096) + 1
		base, err := Run(cfg, elementwiseKernel(l, 0, a, 0, 0), n)
		if err != nil {
			return false
		}
		more, err := Run(cfg, elementwiseKernel(l+1, 0, a+1, 0, 1), n)
		if err != nil {
			return false
		}
		if more.Cycles < base.Cycles {
			return false
		}
		bigger, err := Run(cfg, elementwiseKernel(l+1, 0, a, 0, 0), n*2)
		if err != nil {
			return false
		}
		smaller, err := Run(cfg, elementwiseKernel(l+1, 0, a, 0, 0), n)
		if err != nil {
			return false
		}
		return bigger.Cycles >= smaller.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// elementwiseKernel returns a kernel with the given per-element
// instruction mix: loads inputs, does the arithmetic, stores the result.
func elementwiseKernel(loads, muls, adds, shifts, stores int) Kernel {
	var k Kernel
	for i := 0; i < loads; i++ {
		k = append(k, Instr{UnitLoad, "vload"})
	}
	for i := 0; i < muls; i++ {
		k = append(k, Instr{UnitMul, "vmul"})
	}
	for i := 0; i < adds; i++ {
		k = append(k, Instr{UnitAdd, "vadd"})
	}
	for i := 0; i < shifts; i++ {
		k = append(k, Instr{UnitShift, "vshift"})
	}
	for i := 0; i < stores; i++ {
		k = append(k, Instr{UnitStore, "vstore"})
	}
	return k
}
