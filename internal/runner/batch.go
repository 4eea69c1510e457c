package runner

import (
	"context"

	"dxbsp/internal/core"
	"dxbsp/internal/experiments"
	"dxbsp/internal/sim"
)

// Batcher is the SimRunner middleware behind dxbench -batch. It slots
// below the cache and the fault injector — cache → faults → Batcher →
// sim — and forwards every call unchanged. sim.RunContext already runs
// each lockstep-eligible config on the one-lane lockstep walk, so the
// Batcher groups nothing: it only classifies each call for the
// batch-efficacy metrics (DESIGN.md §14). Output bytes therefore cannot
// depend on K or on worker count.
type Batcher struct {
	// K is the requested lanes per batch; values <= 1 turn the
	// classification off.
	K int
	// Next, when non-nil, runs every call. Nil means sim.RunContext.
	Next experiments.SimRunner
	// Observe, when non-nil, receives every live call's classification
	// while K > 1: reason "" for a config the lockstep walk serves,
	// otherwise its sim.BatchFallbackReason label.
	// Observer.ObserveBatchLane fits directly.
	Observe func(cfg sim.Config, pt core.Pattern, reason string)
}

// NewBatcher returns a Batcher for k lanes per batch.
func NewBatcher(k int) *Batcher { return &Batcher{K: k} }

// RunSim implements experiments.SimRunner: it reports the call's
// lockstep classification through Observe, unless batching is off or
// ctx is already done, and forwards the call.
func (b *Batcher) RunSim(ctx context.Context, cfg sim.Config, pt core.Pattern) (sim.Result, error) {
	if b.K > 1 && b.Observe != nil && ctx.Err() == nil {
		b.Observe(cfg, pt, sim.BatchFallbackReason(cfg))
	}
	if b.Next != nil {
		return b.Next.RunSim(ctx, cfg, pt)
	}
	return sim.RunContext(ctx, cfg, pt)
}
