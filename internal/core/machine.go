// Package core implements the (d,x)-BSP model of Blelloch, Gibbons, Matias
// and Zagha (SPAA'95): Valiant's bulk-synchronous parallel (BSP) model
// extended with two memory-system parameters,
//
//   - d, the bank delay: the number of machine cycles between successive
//     accesses serviced by a single memory bank, and
//   - x, the expansion factor: the ratio of memory banks to processors.
//
// The model charges a superstep in which every processor issues at most h
// memory requests and every memory bank receives at most k requests
//
//	T = max(g*h, d*k) + L
//
// where g is the per-processor gap (inverse bandwidth) and L the
// latency/synchronization cost. The package provides the machine
// description, the cost law, contention profiles of access patterns, and
// predictors for bulk scatter/gather operations under both the plain BSP
// and the (d,x)-BSP accounting.
package core

import (
	"fmt"
	"math"
)

// Machine describes a high-bandwidth shared-memory multiprocessor in
// (d,x)-BSP terms. All times are in machine cycles.
type Machine struct {
	Name  string
	Procs int // p: number of processors
	Banks int // x*p: number of memory banks

	D float64 // bank delay: cycles a bank is busy per access
	G float64 // gap: cycles between request injections per processor
	L float64 // latency + synchronization cost per superstep

	// Sections is the number of network subsections banks are divided
	// into. Each section has limited aggregate bandwidth; congestion at a
	// section is the effect behind the paper's "version (c)" anomaly. A
	// value <= 1 means the network is a full crossbar with no section
	// bottleneck.
	Sections int

	// SectionGap is the number of cycles between successive requests that
	// a single section can accept. Only meaningful when Sections > 1.
	SectionGap float64
}

// Expansion returns x, the ratio of banks to processors.
func (m Machine) Expansion() float64 {
	if m.Procs == 0 {
		return 0
	}
	return float64(m.Banks) / float64(m.Procs)
}

// MachineError reports an unusable machine description. It names the
// offending Machine field so callers can tell a bad machine from a
// runtime failure (use errors.As).
type MachineError struct {
	Machine string // Machine.Name
	Field   string
	Reason  string
}

func (e *MachineError) Error() string {
	return fmt.Sprintf("core: machine %q: %s %s", e.Machine, e.Field, e.Reason)
}

// Validate reports whether the machine description is usable. Every
// failure is a *MachineError.
func (m Machine) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &MachineError{Machine: m.Name, Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"D", m.D}, {"G", m.G}, {"L", m.L}, {"SectionGap", m.SectionGap}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return bad(f.name, "must be finite, got %g", f.v)
		}
	}
	switch {
	case m.Procs <= 0:
		return bad("Procs", "must be positive, got %d", m.Procs)
	case m.Banks <= 0:
		return bad("Banks", "must be positive, got %d", m.Banks)
	case m.D <= 0:
		return bad("D", "must be positive, got %g", m.D)
	case m.G <= 0:
		return bad("G", "must be positive, got %g", m.G)
	case m.L < 0:
		return bad("L", "must be non-negative, got %g", m.L)
	case m.Sections > 1 && m.SectionGap <= 0:
		return bad("SectionGap", "must be positive when Sections > 1, got %g", m.SectionGap)
	case m.Sections > m.Banks:
		return bad("Sections", "must not exceed Banks (%d), got %d", m.Banks, m.Sections)
	}
	return nil
}

// String implements fmt.Stringer.
func (m Machine) String() string {
	return fmt.Sprintf("%s{p=%d b=%d x=%.1f d=%g g=%g L=%g}",
		m.Name, m.Procs, m.Banks, m.Expansion(), m.D, m.G, m.L)
}

// SuperstepCost returns the (d,x)-BSP cost of a superstep in which the
// maximum number of requests issued by any processor is maxH and the
// maximum number of requests received by any bank is maxK.
func (m Machine) SuperstepCost(maxH, maxK int) float64 {
	return math.Max(m.G*float64(maxH), m.D*float64(maxK)) + m.L
}

// BSPCost returns the plain BSP cost of the same superstep: bank delay and
// expansion are ignored, so the cost is g*h + L regardless of how requests
// are distributed over banks. This is the baseline model whose mispredictions
// motivated the paper.
func (m Machine) BSPCost(maxH int) float64 {
	return m.G*float64(maxH) + m.L
}

// EffectiveBankGap returns d/x, the amortized cycles per request per
// processor imposed by the memory banks when requests are perfectly
// balanced. When d/x <= g the memory system keeps up with the processors.
func (m Machine) EffectiveBankGap() float64 {
	x := m.Expansion()
	if x == 0 {
		return math.Inf(1)
	}
	return m.D / x
}

// BandwidthMatched reports whether the aggregate bank bandwidth meets or
// exceeds the aggregate processor request bandwidth, i.e. x >= d/g.
func (m Machine) BandwidthMatched() bool {
	return m.Expansion() >= m.D/m.G
}

// ContentionCrossover returns the location contention k* at which a bulk
// operation of n requests on p processors switches from bandwidth-bound to
// contention-bound: g*(n/p) = d*k*. Patterns with maximum location
// contention below k* cost the same as contention-free ones; above it the
// cost grows linearly in the contention.
func (m Machine) ContentionCrossover(n int) float64 {
	return m.G * float64(n) / (float64(m.Procs) * m.D)
}
