package sim

import (
	"context"
	"fmt"

	"dxbsp/internal/core"
)

// RunSupersteps simulates a sequence of supersteps (barrier between each)
// and returns the per-step results plus the total cycles including one L
// synchronization charge per superstep. It is RunSuperstepsContext
// without cancellation.
func RunSupersteps(cfg Config, steps []core.Pattern) ([]Result, float64, error) {
	return RunSuperstepsContext(context.Background(), cfg, steps)
}

// RunSuperstepsContext is RunSupersteps with cooperative cancellation,
// both between supersteps and — via RunContext's polling — within one,
// so a multi-superstep experiment honors per-point deadlines the same
// way a single-step one does. An uncancelled run returns results
// byte-identical to RunSupersteps.
func RunSuperstepsContext(ctx context.Context, cfg Config, steps []core.Pattern) ([]Result, float64, error) {
	results := make([]Result, 0, len(steps))
	total := 0.0
	for i, st := range steps {
		// A small superstep can finish before the event loop's first
		// cancellation poll; checking here bounds how far a cancelled
		// multi-step run can keep going.
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("sim: cancelled before superstep %d: %w", i, err)
		}
		r, err := RunContext(ctx, cfg, st)
		if err != nil {
			return nil, 0, fmt.Errorf("sim: superstep %d: %w", i, err)
		}
		results = append(results, r)
		total += r.Cycles + cfg.Machine.L
	}
	return results, total, nil
}
