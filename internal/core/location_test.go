package core_test

import (
	"math"
	"slices"
	"testing"

	"dxbsp/internal/core"
	"dxbsp/internal/hashfn"
	"dxbsp/internal/rng"
)

// oracleProfile is the sort-and-scan location pass the Profiler replaced,
// kept as the differential oracle: it profiles addrs issued round-robin by
// p processors with its own per-processor and per-bank counts, and groups
// locations with slices.Sort rather than the package's radix sort.
func oracleProfile(addrs []uint64, p int, bm core.BankMap) (core.Profile, []int) {
	banks := bm.NumBanks()
	prof := core.Profile{Loads: core.Loads{N: len(addrs), Procs: p, Banks: banks}}
	perProc := make([]int, p)
	hist := make([]int, banks)
	for i, a := range addrs {
		perProc[i%p]++
		hist[bm.Bank(a)]++
	}
	prof.MaxH = slices.Max(perProc)
	prof.MaxK = slices.Max(hist)
	sorted := slices.Clone(addrs)
	slices.Sort(sorted)
	distinct := make([]int, banks)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		prof.DistinctLocs++
		prof.MaxLoc = max(prof.MaxLoc, j-i)
		distinct[bm.Bank(sorted[i])]++
		i = j
	}
	prof.MaxKDistinct = slices.Max(distinct)
	return prof, hist
}

// oracleLocations groups addrs by a map count and returns the distinct
// addresses ascending with their counts.
func oracleLocations(addrs []uint64) ([]uint64, []int) {
	counts := map[uint64]int{}
	for _, a := range addrs {
		counts[a]++
	}
	locs := make([]uint64, 0, len(counts))
	for a := range counts {
		locs = append(locs, a)
	}
	slices.Sort(locs)
	cs := make([]int, len(locs))
	for i, a := range locs {
		cs[i] = counts[a]
	}
	return locs, cs
}

// sameLocations reports whether two profiles agree on every field but
// the retained histogram.
func sameLocations(a, b core.Profile) bool {
	return a.Loads == b.Loads && a.MaxLoc == b.MaxLoc &&
		a.DistinctLocs == b.DistinctLocs && a.MaxKDistinct == b.MaxKDistinct
}

// checkLocationPass runs every entry point of the location pass on addrs
// and compares it with the oracles. pr is shared across calls, so a
// buffer the previous call left dirty shows up as a mismatch here.
func checkLocationPass(t *testing.T, pr *core.Profiler, name string, addrs []uint64, p int, bm core.BankMap) {
	t.Helper()
	want, hist := oracleProfile(addrs, p, bm)
	if got := pr.RoundRobin(addrs, p, bm); !sameLocations(got, want) || got.BankLoads != nil {
		t.Errorf("%s p=%d %T: RoundRobin = %+v, oracle %+v", name, p, bm, got, want)
	}
	pt := core.NewPattern(addrs, p)
	if got := core.ComputeProfileCompact(pt, bm); !sameLocations(got, want) || got.BankLoads != nil {
		t.Errorf("%s p=%d %T: ComputeProfileCompact = %+v, oracle %+v", name, p, bm, got, want)
	}
	if got := core.ComputeProfile(pt, bm); !sameLocations(got, want) || !slices.Equal(got.BankLoads, hist) {
		t.Errorf("%s p=%d %T: ComputeProfile = %+v, oracle %+v", name, p, bm, got, want)
	}
	if got := core.ComputeLoads(pt, bm); got != want.Loads {
		t.Errorf("%s p=%d %T: ComputeLoads = %+v, oracle %+v", name, p, bm, got, want.Loads)
	}
	wantLocs, wantCounts := oracleLocations(addrs)
	if locs, counts := pr.Locations(addrs); !slices.Equal(locs, wantLocs) || !slices.Equal(counts, wantCounts) {
		t.Errorf("%s: Locations differ from the map oracle (%d vs %d locations)", name, len(locs), len(wantLocs))
	}
	// Split into ragged segments, the stream reads the same.
	segs := [][]uint64{nil, addrs[:len(addrs)/3], addrs[len(addrs)/3:]}
	if locs, counts := pr.Locations(segs...); !slices.Equal(locs, wantLocs) || !slices.Equal(counts, wantCounts) {
		t.Errorf("%s: Locations over segments differ from the map oracle", name)
	}
}

// spanStream returns n addresses in [base, base+span] that include both
// ends, so the stream's span is exactly span.
func spanStream(n int, base, span uint64, g *rng.Xoshiro256) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = base + g.Uint64n(span+1)
	}
	a[0], a[n-1] = base, base+span
	return a
}

func TestLocationPassMatchesOracle(t *testing.T) {
	g := rng.New(17)
	perm := make([]uint64, 1<<12)
	for i, v := range g.Perm(len(perm)) {
		perm[i] = 1000 + uint64(v)
	}
	streams := []struct {
		name  string
		addrs []uint64
	}{
		{"empty", nil},
		{"n<p", []uint64{9, 3, 9}},
		{"broadcast", spanStream(3000, 4242, 0, g)},
		{"permutation", perm},
		{"dense-random", spanStream(2000, 1<<20, 1500, g)},
		{"sparse-uniform", spanStream(3000, 0, 1<<30, g)},
		{"sparse-small", spanStream(40, 5, 1<<40, g)},
		{"boundary-dense", spanStream(300, 77, 2*300-1, g)},
		{"boundary-sort", spanStream(300, 77, 2*300, g)},
		{"boundary-dense-small", spanStream(10, 3, 2*10-1, g)},
		{"boundary-sort-small", spanStream(10, 3, 2*10, g)},
		{"extremes", []uint64{0, math.MaxUint64, 0, 1, math.MaxUint64 - 1}},
		{"stride-banks", spanStream(512, 0, 512*64, g)},
	}
	maps := []core.BankMap{
		core.InterleaveMap{Banks: core.J90().Banks},
		core.GPUSharedMap{Banks: 32},
		hashfn.Map{F: hashfn.NewLinear(6, rng.New(3))},
	}
	var pr core.Profiler
	for _, s := range streams {
		for _, bm := range maps {
			for _, p := range []int{1, 8, 64} {
				checkLocationPass(t, &pr, s.name, s.addrs, p, bm)
			}
		}
	}
}

// FuzzLocationStats checks the location pass against the sort-and-scan
// oracle on fuzzed streams. The input bytes are 16-bit offsets, scaled by
// 2^shift above base, so the corpus reaches dense spans, the 2n boundary
// and sparse spans; one Profiler serves every input.
func FuzzLocationStats(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0}, uint8(3), uint8(0), uint8(0), uint64(0))
	f.Add([]byte{0, 0, 255, 255, 7, 1, 7, 1}, uint8(1), uint8(1), uint8(30), uint64(1<<40))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5}, uint8(64), uint8(2), uint8(2), uint64(12))
	f.Add([]byte{}, uint8(8), uint8(0), uint8(0), uint64(0))
	var pr core.Profiler
	maps := []core.BankMap{
		core.InterleaveMap{Banks: 64},
		core.GPUSharedMap{Banks: 32},
		hashfn.Map{F: hashfn.NewQuadratic(5, rng.New(8))},
	}
	f.Fuzz(func(t *testing.T, data []byte, p, mapSel, shift uint8, base uint64) {
		addrs := make([]uint64, len(data)/2)
		for i := range addrs {
			off := uint64(data[2*i]) | uint64(data[2*i+1])<<8
			addrs[i] = base + off<<(shift%48)
		}
		checkLocationPass(t, &pr, "fuzz", addrs, int(p%80)+1, maps[int(mapSel)%len(maps)])
	})
}
