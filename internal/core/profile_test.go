package core

import (
	"testing"
	"testing/quick"

	"dxbsp/internal/rng"
)

func TestNewPatternRoundRobin(t *testing.T) {
	addrs := []uint64{0, 1, 2, 3, 4, 5, 6}
	pt := NewPattern(addrs, 3)
	if pt.Procs() != 3 {
		t.Fatalf("Procs = %d", pt.Procs())
	}
	if pt.N() != 7 {
		t.Fatalf("N = %d", pt.N())
	}
	wantLens := []int{3, 2, 2}
	for i, w := range wantLens {
		if len(pt.PerProc[i]) != w {
			t.Errorf("proc %d got %d addrs, want %d", i, len(pt.PerProc[i]), w)
		}
	}
	if pt.PerProc[0][0] != 0 || pt.PerProc[1][0] != 1 || pt.PerProc[2][0] != 2 {
		t.Errorf("round-robin order wrong: %v", pt.PerProc)
	}
}

func TestNewPatternEmptyAndPanics(t *testing.T) {
	pt := NewPattern(nil, 4)
	if pt.N() != 0 || pt.Procs() != 4 {
		t.Errorf("empty pattern: N=%d procs=%d", pt.N(), pt.Procs())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p=0")
		}
	}()
	NewPattern([]uint64{1}, 0)
}

func TestProfileAllSameLocation(t *testing.T) {
	// n requests all to address 17: κ = n, one hot bank with k = n.
	n, p := 64, 8
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = 17
	}
	pt := NewPattern(addrs, p)
	prof := ComputeProfile(pt, InterleaveMap{Banks: 32})
	if prof.MaxLoc != n {
		t.Errorf("MaxLoc = %d, want %d", prof.MaxLoc, n)
	}
	if prof.MaxK != n {
		t.Errorf("MaxK = %d, want %d", prof.MaxK, n)
	}
	if prof.MaxH != n/p {
		t.Errorf("MaxH = %d, want %d", prof.MaxH, n/p)
	}
	if prof.DistinctLocs != 1 {
		t.Errorf("DistinctLocs = %d, want 1", prof.DistinctLocs)
	}
	if prof.MaxKDistinct != 1 {
		t.Errorf("MaxKDistinct = %d, want 1", prof.MaxKDistinct)
	}
}

func TestProfileUnitStride(t *testing.T) {
	// Unit stride over exactly banks*r addresses: perfectly balanced.
	banks, r, p := 16, 4, 4
	n := banks * r
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i)
	}
	prof := ComputeProfile(NewPattern(addrs, p), InterleaveMap{Banks: banks})
	if prof.MaxK != r {
		t.Errorf("MaxK = %d, want %d", prof.MaxK, r)
	}
	if prof.MaxLoc != 1 {
		t.Errorf("MaxLoc = %d, want 1", prof.MaxLoc)
	}
	if prof.DistinctLocs != n {
		t.Errorf("DistinctLocs = %d, want %d", prof.DistinctLocs, n)
	}
}

func TestProfileBankStride(t *testing.T) {
	// Stride = banks: all distinct locations but all in bank 0.
	banks := 8
	n := 32
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i * banks)
	}
	prof := ComputeProfile(NewPattern(addrs, 4), InterleaveMap{Banks: banks})
	if prof.MaxLoc != 1 {
		t.Errorf("MaxLoc = %d, want 1 (all distinct)", prof.MaxLoc)
	}
	if prof.MaxK != n {
		t.Errorf("MaxK = %d, want %d (all same bank)", prof.MaxK, n)
	}
	if prof.MaxKDistinct != n {
		t.Errorf("MaxKDistinct = %d, want %d", prof.MaxKDistinct, n)
	}
}

// The compact profile and the load pass agree with the full profile on
// every field they carry: random, empty and ragged patterns, under the
// interleaved and the GPU shared-memory maps.
func TestProfileCompactMatches(t *testing.T) {
	g := rng.New(9)
	addrs := make([]uint64, 500)
	for i := range addrs {
		addrs[i] = g.Uint64n(1000)
	}
	ragged := Pattern{PerProc: [][]uint64{{5, 5, 9}, nil, {1 << 40}, {7, 6, 5, 4, 3}}}
	patterns := map[string]Pattern{
		"random":  NewPattern(addrs, 8),
		"empty":   NewPattern(nil, 8),
		"ragged":  ragged,
		"blocked": {PerProc: [][]uint64{addrs[0:7], addrs[7:14], addrs[14:22], addrs[22:29], addrs[29:37]}},
	}
	maps := []BankMap{InterleaveMap{Banks: 64}, GPUSharedMap{Banks: 32}}
	for name, pt := range patterns {
		for _, bm := range maps {
			full := ComputeProfile(pt, bm)
			compact := ComputeProfileCompact(pt, bm)
			if full.Loads != compact.Loads || full.MaxLoc != compact.MaxLoc ||
				full.DistinctLocs != compact.DistinctLocs || full.MaxKDistinct != compact.MaxKDistinct {
				t.Errorf("%s %T: compact profile differs: %+v vs %+v", name, bm, full, compact)
			}
			if compact.BankLoads != nil {
				t.Errorf("%s %T: compact profile retained BankLoads", name, bm)
			}
			if loads := ComputeLoads(pt, bm); loads != full.Loads {
				t.Errorf("%s %T: ComputeLoads = %+v, profile has %+v", name, bm, loads, full.Loads)
			}
		}
	}
	if l := ComputeLoads(ragged, InterleaveMap{Banks: 4}); l != (Loads{N: 9, Procs: 4, Banks: 4, MaxH: 5, MaxK: 4}) {
		t.Errorf("ragged loads = %+v", l)
	}
}

func TestLocationSpectrum(t *testing.T) {
	// 4 copies of addr 1, 2 copies of addr 2, 1 copy each of 3 and 4.
	addrs := []uint64{1, 1, 1, 1, 2, 2, 3, 4}
	sp := LocationSpectrum(NewPattern(addrs, 2))
	if sp[4] != 1 || sp[2] != 1 || sp[1] != 2 {
		t.Errorf("spectrum = %v", sp)
	}
	if len(LocationSpectrum(NewPattern(nil, 2))) != 0 {
		t.Error("empty pattern should have empty spectrum")
	}
	// Spectrum mass equals distinct locations; weighted mass equals n.
	total, weighted := 0, 0
	for c, cnt := range sp {
		total += cnt
		weighted += c * cnt
	}
	if total != 4 || weighted != 8 {
		t.Errorf("mass = %d/%d", total, weighted)
	}
}

// Property: profile invariants hold for arbitrary random patterns.
func TestProfileInvariantsProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%2000) + 1
		m := uint64(mRaw%1000) + 1
		g := rng.New(seed)
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = g.Uint64n(m)
		}
		pt := NewPattern(addrs, 8)
		bm := BankMap(InterleaveMap{Banks: 64})
		if seed%2 == 1 {
			bm = GPUSharedMap{Banks: 64}
		}
		prof := ComputeProfile(pt, bm)
		if ComputeLoads(pt, bm) != prof.Loads {
			return false
		}
		// Invariants from the definitions:
		// κ <= k <= n; h = ceil(n/p); distinct <= n; k >= ceil(n/banks).
		if prof.MaxLoc > prof.MaxK || prof.MaxK > n {
			return false
		}
		if prof.MaxH != (n+7)/8 {
			return false
		}
		if prof.DistinctLocs > n || prof.DistinctLocs < 1 {
			return false
		}
		if prof.MaxK < (n+63)/64 {
			return false
		}
		if prof.MaxKDistinct > prof.DistinctLocs {
			return false
		}
		// Bank loads sum to n.
		sum := 0
		for _, k := range prof.BankLoads {
			sum += k
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
