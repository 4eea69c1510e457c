package qrqw

import (
	"fmt"
	"math"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
)

// This file covers the EREW side of Section 5: the paper explores mapping
// both the EREW PRAM and the QRQW PRAM onto high-bandwidth machines. An
// EREW program is a QRQW program whose every step has contention κ = 1,
// so Emulate applies unchanged; what differs is the analysis — with no
// location contention, the only bank hot-spots come from the random
// mapping itself (plain balls-in-bins, no Raghavan–Spencer weighting),
// so the slackness required for work preservation is smaller and does
// not depend on step contention.

// EREWProgram returns a program of the given number of steps in which
// each of v virtual processors accesses a distinct location per step (a
// random permutation of a disjoint address block), so κ = 1 everywhere.
func EREWProgram(v, steps int, g *rng.Xoshiro256) Program {
	return onePerVP(v, steps, func(s int, addrs []uint64) {
		base := uint64(s) << 32
		for i, p := range g.Perm(v) {
			addrs[i] = base + uint64(p)
		}
	})
}

// MinSlacknessEREW returns the smallest slackness s = v/p for which the
// plain Chernoff balls-in-bins analysis guarantees, with probability at
// least 1 - 1/banks, that no bank receives more than alpha*s/x requests
// in an EREW step (v distinct locations hashed uniformly over x*p
// banks), making the emulation work-preserving with overhead alpha*d/
// (g*x) — i.e. fully work-preserving once alpha*d <= g*x.
//
// Derivation: a bank's load is Binomial(v, 1/(xp)) with mean s/x.
// Chernoff: Pr[load > alpha*(s/x)] < exp(-(s/x)*h(alpha-1)) with
// h(δ) = (1+δ)ln(1+δ)-δ; a union bound over x*p banks needs
// (s/x)*h(alpha-1) >= 2*ln(banks).
//
// Note the normalization differs from MinSlacknessWorkPreserving: here
// alpha multiplies the MEAN bank load (so any alpha > 1 is achievable
// with enough slackness), while the QRQW bound's alpha multiplies the
// delay-adjusted target s*t/d (so alpha <= d/x is impossible). The two
// numbers are not directly comparable.
func MinSlacknessEREW(m core.Machine, alpha float64) float64 {
	if alpha <= 1 {
		return math.Inf(1)
	}
	x := m.Expansion()
	h := BernoulliH(alpha - 1)
	return 2 * x * math.Log(float64(m.Banks)) / h
}

// EmulateEREW is Emulate restricted to EREW programs: it returns an error
// if any step has contention above 1, making accidental contention in a
// supposedly exclusive-access program a detected bug rather than a silent
// cost.
func EmulateEREW(prog Program, m core.Machine, bm core.BankMap, mode Mode) (Result, error) {
	for i, s := range prog.Steps {
		if s.kappa > 1 {
			return Result{}, fmt.Errorf("qrqw: EmulateEREW: step %d has contention %d (not EREW)", i, s.kappa)
		}
	}
	return Emulate(prog, m, bm, mode)
}
