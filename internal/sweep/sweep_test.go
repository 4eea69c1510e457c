package sweep

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dxbsp/internal/experiments"
	"dxbsp/internal/runner"
)

func TestParseShard(t *testing.T) {
	cases := []struct {
		spec string
		want Shard
		ok   bool
	}{
		{"0/4", Shard{0, 4}, true},
		{"3/4", Shard{3, 4}, true},
		{"0/1", Shard{0, 1}, true},
		{" 1 / 2 ", Shard{1, 2}, true},
		{"0/0", Shard{}, false},  // n must be >= 1
		{"4/4", Shard{}, false},  // i >= n
		{"-1/4", Shard{}, false}, // i < 0
		{"2/-3", Shard{}, false},
		{"1", Shard{}, false},
		{"a/b", Shard{}, false},
		{"1/b", Shard{}, false},
		{"", Shard{}, false},
	}
	for _, c := range cases {
		got, err := ParseShard(c.spec)
		if c.ok {
			if err != nil {
				t.Errorf("ParseShard(%q): unexpected error %v", c.spec, err)
			} else if got != c.want {
				t.Errorf("ParseShard(%q) = %v, want %v", c.spec, got, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseShard(%q) accepted, got %v", c.spec, got)
			continue
		}
		var ue *UsageError
		if !errors.As(err, &ue) {
			t.Errorf("ParseShard(%q) error is %T, want *UsageError", c.spec, err)
		}
	}
}

// Every point belongs to exactly one shard, for any shard count.
func TestShardPartition(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for index := 0; index < 100; index++ {
			owners := 0
			for i := 0; i < n; i++ {
				if (Shard{Index: i, Count: n}).Owns(index) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("point %d owned by %d shards of %d", index, owners, n)
			}
		}
	}
}

// fakeExperiment enumerates `points` labelled points whose RunPoint is
// never called in these tests.
func fakeExperiment(id string, points int) experiments.Experiment {
	return experiments.Experiment{
		ID: id,
		Points: func(experiments.Config) []experiments.Point {
			pts := make([]experiments.Point, points)
			for i := range pts {
				pts[i] = experiments.Point{Index: i, Label: fmt.Sprintf("p%d", i)}
			}
			return pts
		},
		RunPoint: func(ctx context.Context, cfg experiments.Config, p experiments.Point) (experiments.PointResult, error) {
			return experiments.PointResult{Index: p.Index}, nil
		},
	}
}

// Filtering must preserve each point's global Index and, across all shards,
// cover the grid exactly once.
func TestApplyPreservesGlobalIndex(t *testing.T) {
	cfg := experiments.Config{}
	e := fakeExperiment("FX", 37)
	for n := 1; n <= 5; n++ {
		seen := map[int]string{}
		for i := 0; i < n; i++ {
			for _, p := range Apply(e, Shard{Index: i, Count: n}).Points(cfg) {
				if !(Shard{Index: i, Count: n}).Owns(p.Index) {
					t.Fatalf("shard %d/%d enumerated foreign point %d", i, n, p.Index)
				}
				if prev, dup := seen[p.Index]; dup {
					t.Fatalf("point %d in shard %d/%d and %s", p.Index, i, n, prev)
				}
				seen[p.Index] = fmt.Sprintf("%d/%d", i, n)
				if want := fmt.Sprintf("p%d", p.Index); p.Label != want {
					t.Fatalf("point re-labelled: %q at index %d", p.Label, p.Index)
				}
			}
		}
		if len(seen) != 37 {
			t.Fatalf("%d-way sharding covered %d of 37 points", n, len(seen))
		}
	}
}

// The satellite property: a point's seeded-jitter backoff schedule is a
// pure function of (policy seed, experiment ID, global point index), so it
// is identical whether the point runs single-process or in any shard i/n —
// because filtering preserves the global Index. A regression that
// re-indexes filtered points would change retry timing across shards and
// break run-to-run determinism of the event log.
func TestBackoffScheduleShardInvariant(t *testing.T) {
	cfg := experiments.Config{}
	e := fakeExperiment("F6", 29)
	for _, seed := range []uint64{1, 0xd5bcf95, 1 << 40} {
		policy := runner.RetryPolicy{MaxAttempts: 5, Seed: seed}
		schedule := func(index int) [4]int64 {
			var s [4]int64
			for a := 1; a <= 4; a++ {
				s[a-1] = int64(policy.Backoff(e.ID, index, a))
			}
			return s
		}
		want := map[string][4]int64{}
		for _, p := range e.Points(cfg) {
			want[p.Label] = schedule(p.Index)
		}
		for n := 1; n <= 6; n++ {
			for i := 0; i < n; i++ {
				for _, p := range Apply(e, Shard{Index: i, Count: n}).Points(cfg) {
					if got := schedule(p.Index); got != want[p.Label] {
						t.Fatalf("seed %#x shard %d/%d: point %s backoff %v, single-process %v",
							seed, i, n, p.Label, got, want[p.Label])
					}
				}
			}
		}
	}
}

func TestManifestFingerprintSensitivity(t *testing.T) {
	cfg := experiments.Config{N: 4096, Seed: 7, Quick: true}
	exps := []experiments.Experiment{fakeExperiment("A", 5), fakeExperiment("B", 3)}
	base := Fingerprint(cfg, exps)
	if got := Fingerprint(cfg, exps); got != base {
		t.Fatalf("fingerprint not deterministic: %s vs %s", got, base)
	}
	for name, other := range map[string]string{
		"n":           Fingerprint(experiments.Config{N: 8192, Seed: 7, Quick: true}, exps),
		"seed":        Fingerprint(experiments.Config{N: 4096, Seed: 8, Quick: true}, exps),
		"quick":       Fingerprint(experiments.Config{N: 4096, Seed: 7}, exps),
		"experiments": Fingerprint(cfg, exps[:1]),
		"points":      Fingerprint(cfg, []experiments.Experiment{fakeExperiment("A", 6), exps[1]}),
	} {
		if other == base {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
}
