package core

import (
	"testing"

	"dxbsp/internal/rng"
)

// The dense side serves spans below 2n and the sort side the rest, and
// the dense counters are all zero again after every call.
func TestLocationsSpanRule(t *testing.T) {
	for _, n := range []int{10, 300} {
		for _, tc := range []struct {
			span  uint64
			dense bool
		}{{0, true}, {uint64(2*n - 1), true}, {uint64(2 * n), false}} {
			g := rng.New(uint64(n))
			addrs := make([]uint64, n)
			for i := range addrs {
				addrs[i] = 1<<33 + g.Uint64n(tc.span+1)
			}
			addrs[0], addrs[n-1] = 1<<33, 1<<33+tc.span
			var pr Profiler
			pr.Locations(addrs)
			if dense := pr.dense != nil; dense != tc.dense {
				t.Errorf("n=%d span=%d: dense side %v, want %v", n, tc.span, dense, tc.dense)
			}
			for i, c := range pr.dense {
				if c != 0 {
					t.Fatalf("n=%d span=%d: dense counter %d left at %d", n, tc.span, i, c)
				}
			}
		}
	}
}

// A warm Profiler allocates nothing on either side of the span rule.
func TestProfilerWarmZeroAllocs(t *testing.T) {
	g := rng.New(4)
	dense := make([]uint64, 1<<12)
	sparse := make([]uint64, 1<<12)
	for i := range dense {
		dense[i] = 500 + g.Uint64n(1<<12)
		sparse[i] = g.Uint64n(1 << 40)
	}
	var bm BankMap = InterleaveMap{Banks: 256}
	pt := NewPattern(sparse, 8)
	var pr Profiler
	run := func() {
		pr.RoundRobin(dense, 8, bm)
		pr.RoundRobin(sparse, 8, bm)
		pr.profile(pt, bm)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm Profiler: %.1f allocs per run, want 0", allocs)
	}
}
