package algos

import (
	"testing"
	"testing/quick"

	"dxbsp/internal/rng"
)

func randKV(n, numKeys int, seed uint64) ([]int64, []int64) {
	g := rng.New(seed)
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(g.Intn(numKeys))
		vals[i] = int64(g.Intn(10))
	}
	return keys, vals
}

func TestSerialMultiprefix(t *testing.T) {
	keys := []int64{0, 1, 0, 1, 0}
	vals := []int64{1, 10, 2, 20, 3}
	res := SerialMultiprefix(keys, vals, 2)
	wantPrefix := []int64{0, 0, 1, 10, 3}
	for i := range wantPrefix {
		if res.Prefix[i] != wantPrefix[i] {
			t.Errorf("Prefix = %v, want %v", res.Prefix, wantPrefix)
			break
		}
	}
	if res.Totals[0] != 6 || res.Totals[1] != 30 {
		t.Errorf("Totals = %v", res.Totals)
	}
}

func TestMultiprefixDirectMatchesSerial(t *testing.T) {
	keys, vals := randKV(3000, 17, 1)
	want := SerialMultiprefix(keys, vals, 17)
	got := MultiprefixDirect(newVM(), keys, vals, 17)
	assertMultiprefixEqual(t, got, want)
}

func TestMultiprefixSortedMatchesSerial(t *testing.T) {
	keys, vals := randKV(3000, 17, 2)
	want := SerialMultiprefix(keys, vals, 17)
	got := MultiprefixSorted(newVM(), keys, vals, 17)
	assertMultiprefixEqual(t, got, want)
}

func assertMultiprefixEqual(t *testing.T, got, want MultiprefixResult) {
	t.Helper()
	for i := range want.Prefix {
		if got.Prefix[i] != want.Prefix[i] {
			t.Fatalf("Prefix[%d] = %d, want %d", i, got.Prefix[i], want.Prefix[i])
		}
	}
	for k := range want.Totals {
		if got.Totals[k] != want.Totals[k] {
			t.Fatalf("Totals[%d] = %d, want %d", k, got.Totals[k], want.Totals[k])
		}
	}
}

func TestMultiprefixProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%300 + 1
		numKeys := int(kRaw)%20 + 1
		keys, vals := randKV(n, numKeys, seed)
		want := SerialMultiprefix(keys, vals, numKeys)
		d := MultiprefixDirect(newVM(), keys, vals, numKeys)
		s := MultiprefixSorted(newVM(), keys, vals, numKeys)
		for i := range want.Prefix {
			if d.Prefix[i] != want.Prefix[i] || s.Prefix[i] != want.Prefix[i] {
				return false
			}
		}
		for k := range want.Totals {
			if d.Totals[k] != want.Totals[k] || s.Totals[k] != want.Totals[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMultiprefixSkewContention(t *testing.T) {
	// Direct's contention tracks key skew; Sorted stays κ=1-ish (bounded
	// by the radix sort's own small bucket contention).
	n := 1 << 13
	allSame := make([]int64, n)
	vals := make([]int64, n)
	dSk := MultiprefixDirect(newVM(), allSame, vals, 4)
	if dSk.MaxContention < n/16 {
		t.Errorf("direct on fully-skewed keys: contention %d, want ~n/p", dSk.MaxContention)
	}
	sSk := MultiprefixSorted(newVM(), allSame, vals, 4)
	if sSk.MaxContention >= dSk.MaxContention/2 {
		t.Errorf("sorted should avoid skew contention: %d vs %d", sSk.MaxContention, dSk.MaxContention)
	}
}

func TestMultiprefixCyclesCrossover(t *testing.T) {
	// Uniform keys: direct is much cheaper than the sort-based variant.
	// Fully-skewed keys: direct pays contention, narrowing (or flipping)
	// the gap — the framework's predicted crossover behaviour.
	n := 1 << 13
	keysU, vals := randKV(n, 64, 3)
	vmDU := newVM()
	MultiprefixDirect(vmDU, keysU, vals, 64)
	vmSU := newVM()
	MultiprefixSorted(vmSU, keysU, vals, 64)
	if vmDU.Cycles() >= vmSU.Cycles()/2 {
		t.Errorf("uniform keys: direct %v should be far below sorted %v", vmDU.Cycles(), vmSU.Cycles())
	}

	skew := make([]int64, n)
	vmDS := newVM()
	MultiprefixDirect(vmDS, skew, vals, 64)
	gapU := vmSU.Cycles() / vmDU.Cycles()
	vmSS := newVM()
	MultiprefixSorted(vmSS, skew, vals, 64)
	gapS := vmSS.Cycles() / vmDS.Cycles()
	if gapS >= gapU {
		t.Errorf("skew should erode direct's advantage: gap %v (uniform) vs %v (skewed)", gapU, gapS)
	}
}

func TestMultiprefixPanics(t *testing.T) {
	for _, f := range []func(){
		func() { MultiprefixDirect(newVM(), []int64{0}, []int64{}, 1) },
		func() { MultiprefixDirect(newVM(), []int64{5}, []int64{1}, 3) },
		func() { MultiprefixDirect(newVM(), []int64{-1}, []int64{1}, 3) },
		func() { MultiprefixSorted(newVM(), []int64{0}, []int64{1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// SerialMultiprefix is the reference implementation.
func SerialMultiprefix(keys, vals []int64, numKeys int) MultiprefixResult {
	checkMultiprefixArgs(keys, vals, numKeys)
	res := MultiprefixResult{
		Prefix: make([]int64, len(keys)),
		Totals: make([]int64, numKeys),
	}
	for i, k := range keys {
		res.Prefix[i] = res.Totals[k]
		res.Totals[k] += vals[i]
	}
	return res
}
