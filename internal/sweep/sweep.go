// Package sweep shards an experiment suite's point grid across processes
// and merges the resulting checkpoint journals back into one
// deterministic result, so the paper's sweeps (expansion studies at large
// p, every hash family, every bank discipline) can run across processes
// or machines.
//
// The package builds on two invariants the rest of the system already
// guarantees. First, every experiment enumerates its points
// deterministically: Points(cfg) performs all shared-RNG draws, so two
// processes with the same Config enumerate the identical grid and may
// split it by index. Second, every simulation a point issues is journaled
// under a content key (runner.SimKey) whose value is a pure function of
// the request — so journals written by different processes can be merged
// by key, and a final -resume run replays the merged journal into output
// byte-identical to a single-process run, re-executing nothing.
//
// `dxbench -shard i/n -checkpoint dir` runs the points with Index ≡ i
// (mod n), journaling into a per-shard file; `dxbench -merge dir`
// combines the shard journals into the canonical journal.jsonl. A shard
// killed mid-run resumes its own journal with -resume and re-executes
// only what it had not journaled.
//
// Retry behavior is shard-invariant by construction: the runner's backoff
// schedule derives from (policy seed, experiment ID, point index,
// attempt), and filtering preserves each point's global Index, so a point
// retries on the same schedule no matter which process runs it
// (TestBackoffScheduleShardInvariant pins this).
package sweep

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"dxbsp/internal/experiments"
)

// UsageError marks a sweep misconfiguration the caller should surface as
// a usage failure (exit code 1), never as a degraded run: a bad shard
// spec silently running zero points would look like success.
type UsageError struct{ msg string }

func (e *UsageError) Error() string { return e.msg }

func usageErrorf(format string, args ...interface{}) *UsageError {
	return &UsageError{msg: fmt.Sprintf(format, args...)}
}

// Shard identifies one of Count deterministic partitions of a sweep's
// point grid. The zero value means "not sharded".
type Shard struct {
	// Index is this shard's number in [0, Count).
	Index int
	// Count is the total number of shards.
	Count int
}

// ParseShard parses an "i/n" shard specification. Errors are typed
// *UsageError: i and n must be integers with 0 <= i < n and n >= 1 —
// "0/0" and "i >= n" are configuration mistakes that would otherwise run
// zero points and report success.
func ParseShard(spec string) (Shard, error) {
	is, ns, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, usageErrorf("sweep: bad shard spec %q (want i/n, e.g. 0/4)", spec)
	}
	i, err := strconv.Atoi(strings.TrimSpace(is))
	if err != nil {
		return Shard{}, usageErrorf("sweep: bad shard index in %q: %v", spec, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(ns))
	if err != nil {
		return Shard{}, usageErrorf("sweep: bad shard count in %q: %v", spec, err)
	}
	if n < 1 {
		return Shard{}, usageErrorf("sweep: shard count %d in %q must be >= 1", n, spec)
	}
	if i < 0 || i >= n {
		return Shard{}, usageErrorf("sweep: shard index %d in %q outside [0, %d)", i, spec, n)
	}
	return Shard{Index: i, Count: n}, nil
}

// Enabled reports whether s selects a real partition.
func (s Shard) Enabled() bool { return s.Count > 0 }

// Owns reports whether the point with the given global index belongs to
// this shard. Points are dealt round-robin so every shard sees a cross-
// section of each sweep rather than one contiguous (and possibly
// uniformly expensive) slab.
func (s Shard) Owns(index int) bool {
	if s.Count <= 1 {
		return true
	}
	return index%s.Count == s.Index
}

// String renders the spec form, "i/n".
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// FilterPoints returns the subset of pts owned by s, preserving each
// point's global Index — retry backoff schedules and progress labels key
// on it, so re-indexing would change behavior across shards.
func FilterPoints(pts []experiments.Point, s Shard) []experiments.Point {
	if !s.Enabled() || s.Count == 1 {
		return pts
	}
	out := make([]experiments.Point, 0, (len(pts)+s.Count-1)/s.Count)
	for _, p := range pts {
		if s.Owns(p.Index) {
			out = append(out, p)
		}
	}
	return out
}

// Apply wraps e so its Points stage enumerates only the points owned by
// s. The full grid is still generated first (the shared-RNG draws must
// happen in sweep order on every shard), then filtered; Assemble sees
// only the owned subset, so shard-mode callers journal rather than render.
func Apply(e experiments.Experiment, s Shard) experiments.Experiment {
	if !s.Enabled() || s.Count == 1 {
		return e
	}
	inner := e.Points
	e.Points = func(cfg experiments.Config) []experiments.Point {
		return FilterPoints(inner(cfg), s)
	}
	return e
}

// Fingerprint digests everything that determines the point grid and its
// results: scale, seed, quick mode, and the experiment set with each
// experiment's point count. Two processes agree on the fingerprint iff
// they enumerate the identical grid. Shard journal headers carry it, so a
// shard run with different flags can neither resume nor merge into
// someone else's sweep.
func Fingerprint(cfg experiments.Config, exps []experiments.Experiment) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "n=%d|seed=%d|quick=%t", cfg.N, cfg.Seed, cfg.Quick)
	for _, e := range exps {
		fmt.Fprintf(h, "|%s:%d", e.ID, len(e.Points(cfg)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
