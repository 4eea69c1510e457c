// Package surrogate predicts simulation results in closed form.
//
// The paper's thesis is that T = max(g·max h_i, d·max k_j) + L plus a
// queueing-delay correction predicts a bank-contended machine without
// event simulation. This package is that claim made executable: given
// the same Config and Pattern the event simulator takes, Predict returns
// a Result whose Cycles comes from the (d,x)-BSP law, an M/D/1
// Pollaczek–Khinchine waiting term, and a windowed/pipelined round-trip
// model — in microseconds instead of the simulator's milliseconds to
// seconds, which is what makes p=4096 / x=64 sweeps interactive.
//
// The simulator is the oracle: the surrogate's relative error against it
// is measured over a seeded config sweep, pinned in testdata (see
// envelope.go), and enforced by tests, so routing a point through the
// surrogate trades a *known, bounded* amount of accuracy for speed.
//
// Eligibility is explicit. FIFO and Regulated banks without row caches,
// any issue window, any bank map, with a full crossbar, are supported;
// everything else (row-buffer state, GPU warp replays, section
// bottlenecks) returns a typed *UnsupportedError so callers
// can fall back to simulation rather than silently mispredict.
package surrogate

import (
	"fmt"
	"math"

	"dxbsp/internal/core"
	"dxbsp/internal/sim"
)

// UnsupportedError reports a configuration the closed form cannot
// predict. Callers distinguish it from misconfiguration with errors.As
// and route the point to the event simulator instead.
type UnsupportedError struct {
	Feature string // the Config knob that is out of scope
	Reason  string // why the closed form has no term for it
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("surrogate: unsupported %s: %s", e.Feature, e.Reason)
}

// Eligible reports whether cfg is predictable in closed form. It
// returns nil, or a *UnsupportedError naming the first out-of-scope
// feature. Invalid configs (Validate errors) are also rejected, with
// the sim package's own typed error.
func Eligible(cfg sim.Config) error {
	c := cfg.Normalize()
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if err := c.Validate(); err != nil {
		return err
	}
	switch c.Bank.Discipline {
	case sim.FIFO:
		if c.Bank.CacheLines > 0 {
			return &UnsupportedError{
				Feature: "Bank.CacheLines",
				Reason:  "row-buffer hit rates depend on access order, which the profile moments do not carry",
			}
		}
	case sim.Regulated:
		// Modeled: regulation caps each bank's sustained service rate at
		// RegBudget/RegWindow, an effective service time in the same law.
	case sim.DRAM:
		return &UnsupportedError{
			Feature: "Bank.Discipline",
			Reason:  "DRAM row hits depend on access order; use the event simulator",
		}
	case sim.GPUShared:
		return &UnsupportedError{
			Feature: "Bank.Discipline",
			Reason:  "warp-synchronous replay depends on intra-warp conflict layout; use the event simulator",
		}
	default:
		return &UnsupportedError{
			Feature: "Bank.Discipline",
			Reason:  fmt.Sprintf("unknown discipline %v", c.Bank.Discipline),
		}
	}
	if c.UseSections && c.Machine.Sections > 1 {
		return &UnsupportedError{
			Feature: "UseSections",
			Reason:  "section bottlenecks serialize the network in pattern-order; use the event simulator",
		}
	}
	return nil
}

// effectiveBankDelay returns the per-service cycle cost the discipline
// sustains at a saturated bank: D for FIFO, and for Regulated the
// larger of D and the regulation interval RegWindow/RegBudget (the
// sustained inter-service time once the budget binds).
func effectiveBankDelay(c sim.Config) float64 {
	d := c.Machine.D
	if c.Bank.Discipline == sim.Regulated {
		if reg := c.Bank.RegWindow / float64(c.Bank.RegBudget); reg > d {
			return reg
		}
	}
	return d
}

// Predict returns the closed-form result for simulating pt under cfg,
// using the pattern's exact bank loads (max h, max k) in the cost law. The returned Result has Analytic set, Cycles from the
// model, and the profile-derivable counters (Requests, BankServices,
// MaxBankServed) filled; queue high-water marks and discipline counters
// are zero. Ineligible configs return the same typed errors as
// Eligible.
func Predict(cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	if err := Eligible(cfg); err != nil {
		return sim.Result{}, err
	}
	c := cfg.Normalize()
	p := core.ComputeLoads(pt, c.BankMap)
	cycles := predictCycles(c, p.N, p.MaxH, p.MaxK)
	return sim.Result{
		Cycles:        cycles,
		Requests:      p.N,
		BankServices:  p.N,
		MaxBankServed: p.MaxK,
		BankBusy:      float64(p.N) * c.Machine.D,
		Analytic:      true,
	}, nil
}

// predictCycles is the closed form behind Predict. Mirroring the
// event engine's timing: processors inject at 0, g, 2g, ...; a request
// transits NetDelay each way and occupies its bank for the effective
// service time; Cycles is the last response arrival (the simulator does
// not add Machine.L — callers account for synchronization separately,
// as dxcost does).
//
// Open loop: the last request leaves its processor at g·(h-1), waits
// the M/D/1 Pollaczek–Khinchine time at its bank, and is serviced; a
// saturated or hot bank instead drains serially, so the in-queue wait
// is clamped so the injection branch never exceeds the drain bound
// dEff·(k-1), and the whole expression is floored by it:
//
//	T = max(g·(h-1) + Wq + dEff, dEff·(k-1) + dEff) + 2·NetDelay
//
// Windowed (w > 0): the system is a *closed* queueing network — p·w
// request slots circulate through a pure-delay leg (issue gap + wire)
// and b bank queues — so both saturation (queues back up) and
// starvation (too few slots to keep every bank busy) emerge from one
// throughput model. A Schweitzer-style mean-value iteration finds the
// sustained throughput X, capped by the issue rate p/g and the
// aggregate bank rate b/dEff; T = n/X, floored by the hottest bank's
// drain and the contention-free pipeline bound.
func predictCycles(c sim.Config, n, maxH, maxK int) float64 {
	if n <= 0 || maxH <= 0 || maxK <= 0 {
		return 0
	}
	m := c.Machine
	dEff := effectiveBankDelay(c)
	h := float64(maxH)
	k := float64(maxK)
	drain := dEff * (k - 1) // in-queue serialization bound at the hottest bank

	if c.Window <= 0 {
		wq := md1Wait(m.G, m.Expansion(), dEff)
		// The last injection happens at g·(h-1); by then the hottest bank
		// has been draining since its first arrival, so the remaining wait
		// cannot exceed what is left of its backlog.
		if rem := drain - m.G*(h-1); wq > rem {
			wq = math.Max(rem, 0)
		}
		inj := m.G*(h-1) + wq + dEff
		ser := drain + dEff
		return math.Max(inj, ser) + 2*c.NetDelay
	}

	// Closed loop. mvaBeta scales the waiting a circulating request sees
	// per queued predecessor: 1/2 is the deterministic-service residual,
	// calibrated up against the event simulator because FIFO arrivals are
	// burstier than the product-form assumption. The issue gap g is not a
	// per-slot delay (a processor's slots share its issue pipeline); it
	// enters as the p/g throughput cap below.
	// Regulation enters the closed loop as a bank *throughput* cap, not a
	// per-visit delay: a lightly loaded bank almost never exhausts its
	// budget, so its visit time stays near D; only the sustainable rate
	// (and the hottest bank's drain) feel RegWindow/RegBudget.
	const mvaBeta = 0.75
	cust := math.Min(float64(c.Window)*float64(m.Procs), float64(n))
	zDelay := 2 * c.NetDelay
	banks := float64(m.Banks)
	q := cust / banks
	r := m.D
	x := 0.0
	for i := 0; i < 64; i++ {
		r = m.D * (1 + mvaBeta*q*(cust-1)/cust)
		x = cust / (zDelay + r)
		if lim := float64(m.Procs) / m.G; x > lim {
			x = lim
		}
		if lim := banks / dEff; x > lim {
			x = lim
		}
		next := x * r / banks
		if math.Abs(next-q) < 1e-9*(next+1) {
			q = next
			break
		}
		q = next
	}
	t := float64(n) / x
	if ser := drain + dEff + 2*c.NetDelay; ser > t {
		t = ser
	}
	if pipe := m.G*(h-1) + dEff + 2*c.NetDelay; pipe > t {
		t = pipe
	}
	return t
}

// md1Wait returns the M/D/1 in-queue wait (Pollaczek–Khinchine) for a
// bank fed at per-processor issue gap g with expansion x and service
// time d: utilization ρ = d/(g·x), wait ρ·d/(2·(1-ρ)). Saturated banks
// (ρ >= 1) return +Inf; callers clamp with the drain bound.
func md1Wait(g, x, d float64) float64 {
	if x <= 0 || g <= 0 {
		return math.Inf(1)
	}
	rho := d / (g * x)
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho * d / (2 * (1 - rho))
}
