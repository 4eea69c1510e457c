package core

import (
	"fmt"
	"math"
)

// This file extends the LogP model of Culler et al. [CKP+93] with the
// paper's d and x parameters, as the paper notes is straightforward ("to
// extend the logp it is assumed that the banks are separate modules from
// the processors"). It exists so users of LogP-style analyses can account
// for bank contention without switching cost frameworks.

// DXLogP is the LogP machine — latency L, per-message overhead O, gap G,
// P processors — extended with bank delay D and expansion factor X. The
// memory banks are modules separate from the processors; a request is a
// message to a bank, and the bank is busy D cycles per request.
type DXLogP struct {
	L float64 // end-to-end message latency
	O float64 // processor overhead per message (send or receive)
	G float64 // gap: minimum interval between messages at a processor
	P int     // processors

	D float64 // bank delay
	X float64 // banks per processor
}

// FromMachine derives a DXLogP from a (d,x)-BSP machine, with the given
// per-message processor overhead (BSP has no o; vector machines hide it,
// so o=0 reproduces the BSP-style cost).
func FromMachine(m Machine, o float64) DXLogP {
	return DXLogP{L: m.L, O: o, G: m.G, P: m.Procs, D: m.D, X: m.Expansion()}
}

// Validate reports whether the parameters are usable.
func (m DXLogP) Validate() error {
	switch {
	case m.P <= 0:
		return fmt.Errorf("core: DXLogP: P=%d", m.P)
	case m.G <= 0 || m.D <= 0 || m.X <= 0:
		return fmt.Errorf("core: DXLogP: G, D, X must be positive (g=%g d=%g x=%g)", m.G, m.D, m.X)
	case m.L < 0 || m.O < 0:
		return fmt.Errorf("core: DXLogP: L and O must be non-negative")
	}
	return nil
}

// Banks returns the number of memory-bank modules, x*P rounded.
func (m DXLogP) Banks() int {
	b := int(math.Round(m.X * float64(m.P)))
	if b < 1 {
		b = 1
	}
	return b
}

// MessageCost returns the classic LogP cost of one request/response pair:
// o + L + o going, the bank service, and the return. Under LogP the bank
// service is invisible; under (d,x)-LogP it costs D.
func (m DXLogP) MessageCost() float64 {
	return 2*m.O + m.L + m.D
}

// BulkCost returns the (d,x)-LogP cost of a bulk phase in which each
// processor issues at most h pipelined requests and each bank receives at
// most k: the processor side paces at max(o, g) per message, the bank
// side at D per request, and one latency is paid end to end.
func (m DXLogP) BulkCost(h, k int) float64 {
	per := math.Max(m.O, m.G)
	return math.Max(per*float64(h), m.D*float64(k)) + m.L + 2*m.O
}

// LogPBulkCost is the same phase costed by plain LogP (no D, no X): banks
// are assumed to keep pace. Comparing against BulkCost shows exactly the
// misprediction the paper demonstrates for the BSP.
func (m DXLogP) LogPBulkCost(h int) float64 {
	return math.Max(m.O, m.G)*float64(h) + m.L + 2*m.O
}

// BulkCostProfile applies BulkCost to a pattern's measured bank loads.
func (m DXLogP) BulkCostProfile(p Loads) float64 {
	return m.BulkCost(p.MaxH, p.MaxK)
}
