// Package qrqw implements the Queue-Read Queue-Write PRAM of Gibbons,
// Matias and Ramachandran [GMR94b] and its emulation onto the (d,x)-BSP,
// reproducing Section 5 of the paper.
//
// The QRQW PRAM allows concurrent reads and writes to a shared memory
// location, but charges a step by its maximum location contention: a step
// in which each of v virtual processors performs at most t operations, and
// at most κ of them address any single location, costs max(t, κ) time
// units. This queue rule sits between the EREW rule (contention forbidden)
// and the CRCW rule (contention free) and — the paper argues — matches
// what high-bandwidth machines actually provide, once the bank delay d is
// accounted for.
//
// The emulation maps v virtual processors onto p << v physical processors
// (slackness s = v/p) and hashes memory pseudo-randomly across the x*p
// banks. Each QRQW step becomes one (d,x)-BSP superstep whose cost the
// host machine's cost law determines. The package provides both the
// executable emulation (analytic or simulated charging) and the slowdown/
// work bounds of the paper's Theorems 5.1 (x <= d) and 5.2 (x >= d); the
// exact constants in the theorem statements are not recoverable from the
// captured text, so the bound functions reconstruct the stated *forms*
// (the (d/x) inevitable overhead, and the Raghavan–Spencer condition that
// makes the large-expansion emulation work-preserving).
//
// A Step stores its access lists flat (one address array in virtual-
// processor order, V+1 int32 offsets) with its most operations per virtual
// processor and κ computed when it is built, and Analytic emulation
// charges h and k from that form directly.
package qrqw

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"dxbsp/internal/core"
	"dxbsp/internal/sim"
)

// Step is one QRQW PRAM step: the shared-memory locations each virtual
// processor accesses (reads and writes cost the same under the queue rule),
// list i being addrs[off[i]:off[i+1]]. It is read-only once built.
type Step struct {
	addrs         []uint64
	off           []int32
	maxOps, kappa int
}

// newStep wraps the flat lists addrs and offsets off as a step, computing
// the most operations per virtual processor and κ on pr's buffers.
func newStep(addrs []uint64, off []int32, pr *core.Profiler) Step {
	if len(addrs) > math.MaxInt32 {
		panic(fmt.Sprintf("qrqw: step of %d accesses overflows its int32 offsets", len(addrs)))
	}
	s := Step{addrs: addrs, off: off}
	for i := 1; i < len(off); i++ {
		s.maxOps = max(s.maxOps, int(off[i]-off[i-1]))
	}
	_, counts := pr.Locations(addrs)
	for _, c := range counts {
		s.kappa = max(s.kappa, c)
	}
	return s
}

// vp returns the accesses of virtual processor i.
func (s Step) vp(i int) []uint64 { return s.addrs[s.off[i]:s.off[i+1]] }

// Cost returns the QRQW time of the step: the larger of the most
// operations by any virtual processor and the contention κ.
func (s Step) Cost() int { return max(s.maxOps, s.kappa) }

// pattern returns the step as p physical processors issue it: processor
// r issues the accesses of virtual processors r, r+p, r+2p, ... in turn.
func (s Step) pattern(p int) core.Pattern {
	per := make([][]uint64, p)
	for i := range len(s.off) - 1 {
		per[i%p] = append(per[i%p], s.vp(i)...)
	}
	return core.Pattern{PerProc: per}
}

// loads is core.ComputeLoads(s.pattern(p), bm) without the pattern: h sums
// each processor's list lengths up to v, the last non-empty list, and k is
// the top of one bank histogram, hist (len bm.NumBanks(), any contents).
func (s Step) loads(p int, bm core.BankMap, hist []int) core.Loads {
	v, _ := slices.BinarySearch(s.off, int32(len(s.addrs)))
	l := core.Loads{N: len(s.addrs), Procs: p, Banks: len(hist)}
	for r := range min(p, v) {
		h := 0
		for i := r; i < v; i += p {
			h += int(s.off[i+1] - s.off[i])
		}
		l.MaxH = max(l.MaxH, h)
	}
	clear(hist)
	for _, a := range s.addrs {
		hist[bm.Bank(a)]++
	}
	for _, c := range hist {
		l.MaxK = max(l.MaxK, c)
	}
	return l
}

// Program is a sequence of QRQW steps executed by V virtual processors.
type Program struct {
	V     int
	Steps []Step
}

// Time returns the QRQW PRAM time of the program: the sum of step costs.
func (p Program) Time() int {
	t := 0
	for _, s := range p.Steps {
		t += s.Cost()
	}
	return t
}

// Validate checks that every step has exactly V access lists.
func (p Program) Validate() error {
	if p.V <= 0 {
		return fmt.Errorf("qrqw: program has V=%d virtual processors", p.V)
	}
	for i, s := range p.Steps {
		if n := max(len(s.off)-1, 0); n != p.V {
			return fmt.Errorf("qrqw: step %d has %d access lists, want V=%d", i, n, p.V)
		}
	}
	return nil
}

// Mode selects how emulated supersteps are charged.
type Mode int

const (
	// Analytic uses the (d,x)-BSP closed-form cost.
	Analytic Mode = iota
	// Simulate runs the bank simulator on every emulated superstep.
	Simulate
)

// Result reports an emulation run.
type Result struct {
	// Cycles is the total emulated time on the (d,x)-BSP.
	Cycles float64
	// PerStep is the emulated cost of each QRQW step.
	PerStep []float64
	// QRQWTime is the program's cost on the QRQW PRAM itself.
	QRQWTime int
	// Procs is the number of physical processors used.
	Procs int
	// V is the number of virtual processors emulated.
	V int
}

// Slowdown returns emulated time divided by QRQW time. A work-preserving
// emulation achieves slowdown O(V/Procs).
func (r Result) Slowdown() float64 {
	if r.QRQWTime == 0 {
		return 0
	}
	return r.Cycles / float64(r.QRQWTime)
}

// WorkOverhead returns the emulation's work inflation:
// (Procs * Cycles) / (V * QRQWTime). Work preservation means this is O(1);
// for x < d it cannot beat d/(g*x).
func (r Result) WorkOverhead() float64 {
	w := float64(r.V) * float64(r.QRQWTime)
	if w == 0 {
		return 0
	}
	return float64(r.Procs) * r.Cycles / w
}

// Emulate runs program prog on machine m, assigning virtual processors
// round-robin to the machine's physical processors and mapping locations
// to banks with bm (nil = interleave, but a hashed map is what the theory
// assumes). Each QRQW step is executed as one superstep.
func Emulate(prog Program, m core.Machine, bm core.BankMap, mode Mode) (Result, error) {
	if err := prog.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	sc := scratch.Get().(*emuScratch)
	defer scratch.Put(sc)
	if bm == nil {
		if sc.def == nil || sc.def.NumBanks() != m.Banks {
			sc.def = core.InterleaveMap{Banks: m.Banks}
		}
		bm = sc.def
	}
	res := Result{QRQWTime: prog.Time(), Procs: m.Procs, V: prog.V, PerStep: make([]float64, len(prog.Steps))}
	sc.hist = slices.Grow(sc.hist[:0], bm.NumBanks())[:bm.NumBanks()]
	for si, st := range prog.Steps {
		var cycles float64
		switch mode {
		case Simulate:
			r, err := sim.Run(sim.Config{Machine: m, BankMap: bm}, st.pattern(m.Procs))
			if err != nil {
				return Result{}, fmt.Errorf("qrqw: step %d: %w", si, err)
			}
			cycles = r.Cycles + m.L
		default:
			cycles = m.PredictDXBSP(st.loads(m.Procs, bm, sc.hist))
		}
		res.PerStep[si] = cycles
		res.Cycles += cycles
	}
	return res, nil
}

// emuScratch is Emulate's pooled scratch: the bank histogram and the
// default interleave map, boxed once per bank count (boxing a map of 256
// or more banks into the interface allocates), so a warm Analytic
// emulation allocates only the PerStep slice it returns.
type emuScratch struct {
	hist []int
	def  core.BankMap
}

var scratch = sync.Pool{New: func() any { return new(emuScratch) }}

// InevitableWorkOverhead returns d/(g*x) clamped below at 1: the factor by
// which any emulation's work must exceed the QRQW work when the aggregate
// bank bandwidth (x*p/d requests per cycle) falls short of the aggregate
// processor bandwidth (p/g). This is the "(d/x) is an inevitable work
// overhead" observation for the x <= d case (Theorem 5.1's regime).
func InevitableWorkOverhead(m core.Machine) float64 {
	o := m.D / (m.G * m.Expansion())
	if o < 1 {
		return 1
	}
	return o
}

// SlowdownBoundLowExpansion returns the Theorem 5.1-form bound on the
// emulation slowdown for x <= d with slackness s = v/p:
//
//	slowdown <= c * (d/x) * s * g   (+ lower-order L terms)
//
// i.e. work-optimal up to the inevitable (d/x) factor. The constant c is
// not recoverable from the captured text; callers compare shapes, so the
// bound is returned with c = 1 and the additive L term included.
func SlowdownBoundLowExpansion(m core.Machine, slackness float64) float64 {
	return InevitableWorkOverhead(m)*slackness*m.G + m.L
}

// BernoulliH is the function h(δ) = (1+δ)ln(1+δ) - δ appearing in the
// Raghavan–Spencer tail bound for weighted sums of Bernoulli trials
// [Rag88], which the paper's Theorem 5.2 analysis uses to bound the
// maximum weighted bank load under random hashing.
func BernoulliH(delta float64) float64 {
	if delta <= -1 {
		return math.Inf(1)
	}
	return (1+delta)*math.Log(1+delta) - delta
}

// MinSlacknessWorkPreserving returns the smallest slackness s = v/p for
// which the Theorem 5.2 analysis guarantees, with probability at least
// 1 - 1/banks, that the maximum *weighted* bank load of a QRQW step of
// cost t is at most alpha*s*t/d — so that the bank term d*maxload of the
// emulated superstep is at most alpha * s * t, making the emulation
// work-preserving with overhead alpha.
//
// Derivation (reconstructing the appendix's Raghavan–Spencer argument):
// normalize location weights by t (each location's contention is <= t).
// A bank's normalized expected load is E = s/x per unit step cost. With
// δ = alpha*x/d - 1, Raghavan–Spencer gives
//
//	Pr[load > (1+δ)E] < exp(-E * h(δ))
//
// and a union bound over the x*p banks requires E * h(δ) >= ln(banks^2),
// i.e. s >= 2x * ln(banks) / h(alpha*x/d - 1).
//
// The returned slackness is +Inf when alpha <= d/x (the target overhead is
// below the inevitable one, so no slackness suffices): the nonlinearity of
// the slowdown in d and x that the abstract advertises lives exactly here.
func MinSlacknessWorkPreserving(m core.Machine, alpha float64) float64 {
	x := m.Expansion()
	delta := alpha*x/m.D - 1
	if delta <= 0 {
		return math.Inf(1)
	}
	h := BernoulliH(delta)
	return 2 * x * math.Log(float64(m.Banks)) / h
}

// StepTimeBoundHighExpansion returns the Theorem 5.2-form bound on the
// emulated time of one QRQW step of cost t, with slackness s and overhead
// target alpha: max(g*s, alpha*s) * t + L.
func StepTimeBoundHighExpansion(m core.Machine, slackness, alpha float64, stepCost int) float64 {
	per := math.Max(m.G*slackness, alpha*slackness)
	return per*float64(stepCost) + m.L
}
