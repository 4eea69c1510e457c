// Package pipe models the processor side of the paper's machines: a
// vector unit executing chained vector instructions over strips of VL
// elements (VL = 64 on the J90, 128 on the C90). The memory-system model
// (internal/sim) answers "how long do the banks take"; this package
// answers "how fast can one processor issue work" — the origin of the
// per-element costs the vector layer charges for elementwise code and the
// evaluation costs in the hash-function table (T3).
//
// The model is deliberately chime-level, the granularity the paper and
// [ZB91] reason at: a kernel is a straight-line sequence of vector
// instructions; each instruction occupies one functional unit and (for
// memory ops) one port for ceil(n/VL) chimes of VL cycles each; chaining
// lets a dependent instruction start in the same chime as its producer,
// so the kernel cost per strip is driven by the most heavily used
// resource, plus a startup term per instruction.
package pipe

import "fmt"

// Unit identifies a functional unit class.
type Unit int

const (
	// UnitAdd is the vector integer add/logical unit.
	UnitAdd Unit = iota
	// UnitMul is the vector multiply unit.
	UnitMul
	// UnitShift is the vector shift unit.
	UnitShift
	// UnitLoad is a memory load port.
	UnitLoad
	// UnitStore is a memory store port.
	UnitStore
	numUnits
)

// String implements fmt.Stringer.
func (u Unit) String() string {
	switch u {
	case UnitAdd:
		return "add"
	case UnitMul:
		return "mul"
	case UnitShift:
		return "shift"
	case UnitLoad:
		return "load"
	case UnitStore:
		return "store"
	}
	return fmt.Sprintf("unit(%d)", int(u))
}

// Config describes one processor's vector unit.
type Config struct {
	// VL is the vector register length in elements.
	VL int
	// Copies[u] is the number of functional units of each class; memory
	// classes count ports. Zero entries default to 1.
	Copies [5]int
	// Chaining allows a dependent instruction to overlap its producer
	// within a strip. Without chaining each instruction finishes its
	// strip before the next begins.
	Chaining bool
	// Startup is the per-instruction pipeline fill cost in cycles
	// (applied once per strip per instruction when not hidden by
	// chaining; a single aggregate term in this model).
	Startup float64
}

// J90Unit returns the vector-unit configuration of the simulated J90:
// VL=64, one unit per class, one load and one store port, chaining on.
func J90Unit() Config {
	return Config{VL: 64, Chaining: true, Startup: 5}
}

// C90Unit returns the configuration of the simulated C90: VL=128, two
// load ports (the C90 could sustain two loads and a store per clock),
// chaining on.
func C90Unit() Config {
	c := Config{VL: 128, Chaining: true, Startup: 5}
	c.Copies[UnitLoad] = 2
	return c
}

func (c Config) copies(u Unit) int {
	if c.Copies[u] <= 0 {
		return 1
	}
	return c.Copies[u]
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.VL <= 0 {
		return fmt.Errorf("pipe: VL=%d", c.VL)
	}
	if c.Startup < 0 {
		return fmt.Errorf("pipe: negative startup")
	}
	return nil
}

// Instr is one vector instruction in a kernel.
type Instr struct {
	Unit Unit
	// Name is for diagnostics only.
	Name string
}

// Kernel is a straight-line vector instruction sequence applied to every
// element of a stream (e.g. the body of a vectorized loop).
type Kernel []Instr

// HashKernel returns the vectorized evaluation kernel of a polynomial
// hash with the given operation counts (see hashfn.OpCounts): load the
// address stream, do the arithmetic, keep the result in register (no
// store; the consumer chains from it).
func HashKernel(muls, adds, shifts int) Kernel {
	var k Kernel
	k = append(k, Instr{UnitLoad, "vload addr"})
	for i := 0; i < muls; i++ {
		k = append(k, Instr{UnitMul, "vmul"})
	}
	for i := 0; i < adds; i++ {
		k = append(k, Instr{UnitAdd, "vadd"})
	}
	for i := 0; i < shifts; i++ {
		k = append(k, Instr{UnitShift, "vshift"})
	}
	return k
}

// Cost reports the simulated execution of a kernel over n elements.
type Cost struct {
	Cycles     float64
	Strips     int
	Bottleneck Unit // the unit class that bounds throughput
}

// CyclesPerElement returns the throughput figure.
func (c Cost) CyclesPerElement(n int) float64 {
	if n == 0 {
		return 0
	}
	return c.Cycles / float64(n)
}

// Run simulates kernel k over n elements on unit cfg.
//
// With chaining, a strip's cost is bounded by the busiest unit class:
// each class u with m_u instructions and c_u copies needs
// ceil(m_u/c_u)*VL cycles per strip, all classes overlapping, plus one
// startup per strip (the chain fill). Without chaining the strip is the
// serial sum over instructions of VL + startup.
func Run(cfg Config, k Kernel, n int) (Cost, error) {
	if err := cfg.Validate(); err != nil {
		return Cost{}, err
	}
	if n < 0 {
		return Cost{}, fmt.Errorf("pipe: n=%d", n)
	}
	var counts [numUnits]int
	for _, ins := range k {
		if ins.Unit < 0 || ins.Unit >= numUnits {
			return Cost{}, fmt.Errorf("pipe: bad unit %d in %q", ins.Unit, ins.Name)
		}
		counts[ins.Unit]++
	}
	strips := (n + cfg.VL - 1) / cfg.VL
	cost := Cost{Strips: strips}
	if n == 0 || len(k) == 0 {
		return cost, nil
	}

	if cfg.Chaining {
		perStrip := 0.0
		for u := Unit(0); u < numUnits; u++ {
			passes := (counts[u] + cfg.copies(u) - 1) / cfg.copies(u)
			t := float64(passes * cfg.VL)
			if t > perStrip {
				perStrip = t
				cost.Bottleneck = u
			}
		}
		lastStripVL := n - (strips-1)*cfg.VL
		// Full strips at perStrip; the final partial strip at its
		// proportional cost; one startup per strip.
		cost.Cycles = float64(strips-1)*perStrip +
			perStrip*float64(lastStripVL)/float64(cfg.VL) +
			float64(strips)*cfg.Startup
		return cost, nil
	}

	// Unchained: serial instruction execution per strip.
	perFull := 0.0
	for u := Unit(0); u < numUnits; u++ {
		passes := (counts[u] + cfg.copies(u) - 1) / cfg.copies(u)
		perFull += float64(passes * cfg.VL)
	}
	lastStripVL := n - (strips-1)*cfg.VL
	cost.Cycles = float64(strips-1)*perFull +
		perFull*float64(lastStripVL)/float64(cfg.VL) +
		float64(strips*len(k))*cfg.Startup
	// Bottleneck is meaningless serially; report the largest class.
	best := 0
	for u := Unit(0); u < numUnits; u++ {
		if counts[u] > best {
			best = counts[u]
			cost.Bottleneck = u
		}
	}
	return cost, nil
}
