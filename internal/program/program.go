// Package program defines a declarative, JSON-serializable description of
// a bulk-synchronous workload — a sequence of supersteps, each with an
// access-pattern specification and optional per-processor compute — and
// costs it under the BSP, (d,x)-BSP and (d,x)-LogP models or by running
// it through the bank simulator. It is the input format of the dxcost
// tool: performance modeling of a sketched algorithm without writing any
// Go.
package program

import (
	"encoding/json"
	"fmt"
	"io"

	"dxbsp/internal/core"
	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
	"dxbsp/internal/sim"
	"dxbsp/internal/surrogate"
)

// PatternSpec declares how to generate one superstep's address stream.
type PatternSpec struct {
	// Kind selects the generator: "contention", "uniform", "entropy",
	// "stride", "allsame", "permutation", "zipf", "explicit".
	Kind string `json:"kind"`
	// N is the number of requests (ignored for "explicit").
	N int `json:"n"`
	// K is the location contention for "contention".
	K int `json:"k,omitempty"`
	// M is the address range for "uniform"/"zipf" and the (power-of-two)
	// key space for "entropy".
	M uint64 `json:"m,omitempty"`
	// Rounds is the AND-round count for "entropy".
	Rounds int `json:"rounds,omitempty"`
	// Stride is the step for "stride".
	Stride uint64 `json:"stride,omitempty"`
	// S is the Zipf exponent.
	S float64 `json:"s,omitempty"`
	// Addrs holds the explicit address list for "explicit".
	Addrs []uint64 `json:"addrs,omitempty"`
}

// maxZipfRange bounds the CDF table a "zipf" spec may request.
const maxZipfRange = 1 << 26

// Build generates the address stream.
func (ps PatternSpec) Build(g *rng.Xoshiro256) ([]uint64, error) {
	if ps.N < 0 {
		return nil, fmt.Errorf("program: negative n %d", ps.N)
	}
	if ps.Kind == "zipf" && ps.M > maxZipfRange {
		return nil, fmt.Errorf("program: zipf range %d exceeds %d", ps.M, maxZipfRange)
	}
	switch ps.Kind {
	case "contention":
		if ps.K <= 0 || ps.N <= 0 || ps.N%ps.K != 0 {
			return nil, fmt.Errorf("program: contention needs k>0 dividing n (n=%d k=%d)", ps.N, ps.K)
		}
		return patterns.Contention(ps.N, ps.K, 1), nil
	case "uniform":
		if ps.M == 0 {
			return nil, fmt.Errorf("program: uniform needs m > 0")
		}
		return patterns.Uniform(ps.N, ps.M, g), nil
	case "entropy":
		if ps.M == 0 || ps.M&(ps.M-1) != 0 {
			return nil, fmt.Errorf("program: entropy needs power-of-two m, got %d", ps.M)
		}
		return patterns.Entropy(ps.N, ps.M, ps.Rounds, g), nil
	case "stride":
		if ps.Stride == 0 {
			return nil, fmt.Errorf("program: stride needs stride > 0")
		}
		return patterns.Strided(ps.N, 0, ps.Stride), nil
	case "allsame":
		return patterns.AllSame(ps.N, 0), nil
	case "permutation":
		return patterns.Permutation(ps.N, g), nil
	case "zipf":
		if ps.M == 0 {
			return nil, fmt.Errorf("program: zipf needs m > 0")
		}
		return patterns.Zipf(ps.N, int(ps.M), ps.S, g), nil
	case "explicit":
		if len(ps.Addrs) == 0 {
			return nil, fmt.Errorf("program: explicit needs addrs")
		}
		return ps.Addrs, nil
	}
	return nil, fmt.Errorf("program: unknown pattern kind %q", ps.Kind)
}

// Superstep is one phase of the workload.
type Superstep struct {
	// Name labels the phase in reports.
	Name string `json:"name"`
	// Pattern is the memory traffic; omit (zero Kind) for compute-only.
	Pattern PatternSpec `json:"pattern,omitempty"`
	// ComputePerProc is local work in cycles per processor.
	ComputePerProc float64 `json:"compute,omitempty"`
	// Repeat executes the superstep this many times (default 1).
	Repeat int `json:"repeat,omitempty"`
}

// Program is a complete workload.
type Program struct {
	Name       string      `json:"name"`
	Seed       uint64      `json:"seed,omitempty"`
	Supersteps []Superstep `json:"supersteps"`
}

// Parse reads a Program from JSON.
func Parse(r io.Reader) (Program, error) {
	var p Program
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Program{}, fmt.Errorf("program: %v", err)
	}
	if len(p.Supersteps) == 0 {
		return Program{}, fmt.Errorf("program: no supersteps")
	}
	return p, nil
}

// StepCost is the costing of one superstep under all models.
type StepCost struct {
	Name     string
	Repeat   int
	Requests int
	Kappa    int // location contention
	BSP      float64
	DXBSP    float64
	DXLogP   float64
	Sim      float64 // 0 unless simulation requested
	// Surrogate is the closed-form queueing surrogate's prediction
	// (internal/surrogate), on the same completion-plus-L basis as Sim.
	// 0 unless requested via CostWith.
	Surrogate float64
}

// Report is the full costing.
type Report struct {
	Machine core.Machine
	Steps   []StepCost
	// Totals across repeats.
	TotalBSP, TotalDXBSP, TotalDXLogP, TotalSim float64
	TotalSurrogate                              float64
}

// Cost evaluates the program on machine m. If simulate is true, each
// superstep also runs through the bank simulator. The per-message
// overhead o parameterizes the (d,x)-LogP column.
func Cost(p Program, m core.Machine, o float64, simulate bool) (Report, error) {
	return CostWith(p, m, o, simulate, false)
}

// CostWith is Cost with the closed-form surrogate as an additional
// column: when surr is true every memory superstep is also predicted by
// internal/surrogate.Predict, directly comparable to the simulated
// column (and to it alone — the BSP-family columns cost a whole
// superstep including synchronization structure, while Sim and
// Surrogate cost the bulk access).
func CostWith(p Program, m core.Machine, o float64, simulate, surr bool) (Report, error) {
	if err := m.Validate(); err != nil {
		return Report{}, err
	}
	g := rng.New(p.Seed | 1)
	lp := core.FromMachine(m, o)
	rep := Report{Machine: m}
	for i, st := range p.Supersteps {
		repeat := st.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		sc := StepCost{Name: st.Name, Repeat: repeat}
		if sc.Name == "" {
			sc.Name = fmt.Sprintf("step%d", i)
		}
		if st.Pattern.Kind != "" {
			addrs, err := st.Pattern.Build(g)
			if err != nil {
				return Report{}, fmt.Errorf("superstep %q: %w", sc.Name, err)
			}
			pt := core.NewPattern(addrs, m.Procs)
			prof := core.ComputeProfileCompact(pt, core.InterleaveMap{Banks: m.Banks})
			sc.Requests = prof.N
			sc.Kappa = prof.MaxLoc
			sc.BSP = m.PredictBSP(prof.Loads)
			sc.DXBSP = m.PredictDXBSP(prof.Loads)
			sc.DXLogP = lp.BulkCostProfile(prof.Loads)
			if simulate {
				r, err := sim.Run(sim.Config{Machine: m}, pt)
				if err != nil {
					return Report{}, err
				}
				sc.Sim = r.Cycles + m.L
			}
			if surr {
				r, err := surrogate.Predict(sim.Config{Machine: m}, pt)
				if err != nil {
					return Report{}, fmt.Errorf("superstep %q: %w", sc.Name, err)
				}
				sc.Surrogate = r.Cycles + m.L
			}
		}
		sc.BSP += st.ComputePerProc
		sc.DXBSP += st.ComputePerProc
		sc.DXLogP += st.ComputePerProc
		if simulate {
			sc.Sim += st.ComputePerProc
		}
		if surr {
			sc.Surrogate += st.ComputePerProc
		}
		rep.Steps = append(rep.Steps, sc)
		rep.TotalBSP += sc.BSP * float64(repeat)
		rep.TotalDXBSP += sc.DXBSP * float64(repeat)
		rep.TotalDXLogP += sc.DXLogP * float64(repeat)
		rep.TotalSim += sc.Sim * float64(repeat)
		rep.TotalSurrogate += sc.Surrogate * float64(repeat)
	}
	return rep, nil
}
