package sim

import (
	"testing"
	"testing/quick"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// Property-based tests of the simulator's global invariants.

func randPattern(seed uint64, nRaw uint16, m core.Machine) core.Pattern {
	n := int(nRaw%2000) + 1
	g := rng.New(seed)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = g.Uint64n(1 << 20)
	}
	return core.NewPattern(addrs, m.Procs)
}

// Conservation: every request is serviced exactly once (no combining),
// and busy time equals services * d.
func TestPropertyConservation(t *testing.T) {
	m := testMachine()
	f := func(seed uint64, nRaw uint16) bool {
		pt := randPattern(seed, nRaw, m)
		r, err := Run(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		if r.BankServices != pt.N() || r.Requests != pt.N() {
			return false
		}
		return r.BankBusy == float64(pt.N())*m.D
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Lower bounds: completion time is at least the issue-rate bound and at
// least the hottest bank's service demand.
func TestPropertyLowerBounds(t *testing.T) {
	m := testMachine()
	f := func(seed uint64, nRaw uint16) bool {
		pt := randPattern(seed, nRaw, m)
		loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
		r, err := Run(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		if r.Cycles < m.D*float64(loads.MaxK)-1e-9 {
			return false
		}
		return r.Cycles >= m.G*float64(loads.MaxH)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Upper bound: completion never exceeds full serialization at one bank
// plus the pipeline fill.
func TestPropertyUpperBound(t *testing.T) {
	m := testMachine()
	f := func(seed uint64, nRaw uint16) bool {
		pt := randPattern(seed, nRaw, m)
		r, err := Run(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		serial := m.D*float64(pt.N()) + m.G*float64(pt.N()) + 2*m.L + 1
		return r.Cycles <= serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Monotonicity in d: raising the bank delay never speeds a pattern up.
func TestPropertyMonotoneInDelay(t *testing.T) {
	base := testMachine()
	f := func(seed uint64, nRaw uint16) bool {
		pt := randPattern(seed, nRaw, base)
		prev := -1.0
		for _, d := range []float64{1, 2, 4, 8} {
			m := base
			m.D = d
			r, err := Run(Config{Machine: m}, pt)
			if err != nil {
				return false
			}
			if r.Cycles < prev-1e-9 {
				return false
			}
			prev = r.Cycles
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// The (d,x)-BSP prediction is always within a constant factor of the
// simulation for patterns without module-map pathologies.
func TestPropertyModelEnvelope(t *testing.T) {
	m := core.J90()
	f := func(seed uint64, nRaw uint16) bool {
		pt := randPattern(seed, nRaw, m)
		loads := core.ComputeLoads(pt, core.InterleaveMap{Banks: m.Banks})
		r, err := Run(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		pred := m.PredictDXBSP(loads)
		ratio := r.Cycles / pred
		return ratio > 0.5 && ratio < 3.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Combining preserves per-address last-writer semantics is a vector-layer
// concern; at the sim layer, combining must never serve MORE services
// than requests, and without duplicates it changes nothing.
func TestPropertyCombiningBounds(t *testing.T) {
	m := testMachine()
	f := func(seed uint64, nRaw uint16) bool {
		pt := randPattern(seed, nRaw, m)
		plain, err := Run(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		comb, err := Run(Config{Machine: m, Combining: true}, pt)
		if err != nil {
			return false
		}
		if comb.BankServices > plain.BankServices {
			return false
		}
		return comb.Cycles <= plain.Cycles+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Permutation patterns (all addresses distinct, spread) complete in
// near-bandwidth time on a bandwidth-matched machine.
func TestPropertyPermutationFast(t *testing.T) {
	m := core.C90() // x=128 >> d=6
	f := func(seed uint64) bool {
		g := rng.New(seed)
		n := 4096
		perm := g.Perm(n)
		addrs := make([]uint64, n)
		for i, v := range perm {
			addrs[i] = uint64(v)
		}
		pt := core.NewPattern(addrs, m.Procs)
		r, err := Run(Config{Machine: m}, pt)
		if err != nil {
			return false
		}
		bound := m.G * float64(n) / float64(m.Procs)
		return r.Cycles <= bound*1.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
