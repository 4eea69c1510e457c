package runner

import (
	"context"
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/sim"
	"dxbsp/internal/surrogate"
)

// SurrogateMode selects how the runner routes simulation requests to the
// closed-form surrogate (internal/surrogate).
type SurrogateMode int

const (
	// SurrogateNever routes nothing: every request event-simulates.
	SurrogateNever SurrogateMode = iota
	// SurrogateAuto routes eligible requests at or above the size
	// threshold; small points keep the simulator's exact answer.
	SurrogateAuto
	// SurrogateAlways routes every eligible request. Ineligible
	// configurations (DRAM, GPU, row caches, sections) still simulate.
	SurrogateAlways
)

// DefaultSurrogateThreshold is the request count at which auto mode
// switches a point from event simulation to the closed form. Simulator
// wall time grows linearly in the request count while the surrogate's
// is constant, so the threshold is sized where a point starts costing
// tens of milliseconds — below it exactness is free, above it the sweep
// stops being interactive.
const DefaultSurrogateThreshold = 65536

func (m SurrogateMode) String() string {
	switch m {
	case SurrogateAuto:
		return "auto"
	case SurrogateAlways:
		return "always"
	default:
		return "never"
	}
}

// ParseSurrogateMode maps a CLI name to its SurrogateMode.
func ParseSurrogateMode(s string) (SurrogateMode, error) {
	switch s {
	case "never", "":
		return SurrogateNever, nil
	case "auto":
		return SurrogateAuto, nil
	case "always":
		return SurrogateAlways, nil
	}
	return SurrogateNever, fmt.Errorf("unknown surrogate mode %q (want never, auto, or always)", s)
}

// SurrogateRouting configures the runner's surrogate routing. The zero
// value (SurrogateNever) is a no-op.
type SurrogateRouting struct {
	Mode SurrogateMode
	// Threshold is the minimum request count auto mode routes; 0 means
	// DefaultSurrogateThreshold. Ignored by never and always.
	Threshold int
}

// surrogateRouter sits outermost in the RunSim chain — above the probe
// and the cache — so a routed point skips simulation entirely: no probe
// contribution, no cache entry, no journal append. Results it produces
// carry Result.Analytic, and the observer tallies them under the
// dxbsp_surrogate_* series instead of the dxbsp_sim_* ones.
type surrogateRouter struct {
	policy SurrogateRouting
	next   experiments.SimRunner // nil means sim.RunContext directly
	obs    *Observer
}

func (s *surrogateRouter) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	if s.route(pt) {
		if res, err := surrogate.Predict(cfg, pt); err == nil {
			if s.obs != nil {
				s.obs.ObserveSurrogate(cfg, pt, surrogate.MaxRelErr(cfg))
			}
			return res, nil
		}
		// Ineligible (or invalid) for the closed form: let the simulator
		// produce the exact answer or the authoritative validation error.
	}
	if s.next != nil {
		return s.next.RunSim(ctx, cfg, pt)
	}
	return sim.RunContext(ctx, cfg, pt)
}

func (s *surrogateRouter) route(pt core.Pattern) bool {
	switch s.policy.Mode {
	case SurrogateAlways:
		return true
	case SurrogateAuto:
		th := s.policy.Threshold
		if th <= 0 {
			th = DefaultSurrogateThreshold
		}
		return pt.N() >= th
	}
	return false
}
