package patterns

import (
	"math"
	"testing"
	"testing/quick"

	"dxbsp/internal/rng"
)

func TestAllSame(t *testing.T) {
	a := AllSame(100, 42)
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	for _, v := range a {
		if v != 42 {
			t.Fatalf("value %d != 42", v)
		}
	}
	if MaxContention(a) != 100 {
		t.Errorf("contention = %d, want 100", MaxContention(a))
	}
}

func TestContentionExact(t *testing.T) {
	for _, k := range []int{1, 2, 4, 16, 64, 256} {
		n := 256
		a := Contention(n, k, 1)
		if got := MaxContention(a); got != k {
			t.Errorf("Contention(%d,%d): measured contention %d", n, k, got)
		}
		if len(a) != n {
			t.Errorf("len = %d", len(a))
		}
	}
}

func TestContentionSpreadSeparatesBanks(t *testing.T) {
	// With spread = banks+1 (coprime-ish spacing), distinct locations land
	// in distinct banks for small m.
	n, k, banks := 64, 8, 512
	a := Contention(n, k, uint64(banks+1))
	seen := map[int]bool{}
	for _, addr := range a {
		seen[int(addr%uint64(banks))] = true
	}
	if len(seen) != n/k {
		t.Errorf("distinct banks = %d, want %d", len(seen), n/k)
	}
}

func TestContentionPanics(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{10, 3}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Contention(%d,%d) should panic", tc.n, tc.k)
				}
			}()
			Contention(tc.n, tc.k, 1)
		}()
	}
}

func TestUniformRange(t *testing.T) {
	g := rng.New(1)
	a := Uniform(10000, 1000, g)
	for _, v := range a {
		if v >= 1000 {
			t.Fatalf("value %d out of range", v)
		}
	}
	// Contention of 10000 balls in 1000 bins should be small (~4-8).
	if c := MaxContention(a); c > 40 {
		t.Errorf("uniform contention %d suspiciously high", c)
	}
}

func TestStrided(t *testing.T) {
	a := Strided(5, 10, 3)
	want := []uint64{10, 13, 16, 19, 22}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("a[%d] = %d, want %d", i, a[i], want[i])
		}
	}
}

func TestPermutationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1024) + 1
		a := Permutation(n, rng.New(seed))
		if len(a) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range a {
			if v >= uint64(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return MaxContention(a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEntropyMonotone(t *testing.T) {
	// More AND rounds → lower entropy, higher contention.
	n := 1 << 14
	m := uint64(1 << 16)
	g := rng.New(5)
	prevH := math.Inf(1)
	prevC := 0
	for _, rounds := range []int{0, 1, 2, 4, 8} {
		a := Entropy(n, m, rounds, rng.New(7)) // fresh deterministic stream per family member
		h := MeasureEntropy(a)
		c := MaxContention(a)
		if h > prevH+0.25 {
			t.Errorf("rounds=%d: entropy %v rose from %v", rounds, h, prevH)
		}
		if c < prevC/2 {
			t.Errorf("rounds=%d: contention %d fell sharply from %d", rounds, c, prevC)
		}
		prevH, prevC = h, c
	}
	_ = g
	// Many rounds: keys collapse toward 0.
	far := Entropy(n, m, 40, rng.New(7))
	if c := MaxContention(far); c < n/2 {
		t.Errorf("after 40 rounds contention = %d, want ≈ n", c)
	}
}

func TestEntropyPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two m")
		}
	}()
	Entropy(10, 1000, 1, rng.New(1))
}

func TestMeasureEntropy(t *testing.T) {
	if h := MeasureEntropy(nil); h != 0 {
		t.Errorf("empty entropy = %v", h)
	}
	if h := MeasureEntropy(AllSame(100, 7)); h != 0 {
		t.Errorf("constant entropy = %v, want 0", h)
	}
	// Uniform over 2^k distinct values appearing once each: entropy = k.
	a := Strided(256, 0, 1)
	if h := MeasureEntropy(a); math.Abs(h-8) > 1e-9 {
		t.Errorf("uniform-256 entropy = %v, want 8", h)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	g := rng.New(12)
	n, m := 20000, 1000
	a := Zipf(n, m, 1.2, g)
	counts := map[uint64]int{}
	for _, v := range a {
		if v >= uint64(m) {
			t.Fatalf("value %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate and the distribution must be heavy-headed.
	if counts[0] < counts[1] {
		t.Errorf("count(0)=%d < count(1)=%d", counts[0], counts[1])
	}
	if counts[0] < n/20 {
		t.Errorf("head count %d too small for s=1.2", counts[0])
	}
	// s=0 degenerates to uniform: head should NOT dominate.
	u := Zipf(n, m, 0, rng.New(13))
	if c := MaxContention(u); c > n/m*5 {
		t.Errorf("s=0 contention %d, want near uniform %d", c, n/m)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Zipf(1, 0, 1, rng.New(1)) },
		func() { Zipf(1, 10, -1, rng.New(1)) },
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

func TestWorstCaseBank(t *testing.T) {
	banks := 64
	a := WorstCaseBank(100, banks)
	for _, v := range a {
		if v%uint64(banks) != 0 {
			t.Fatalf("address %d not in bank 0", v)
		}
	}
	if MaxContention(a) != 1 {
		t.Error("worst-case pattern should have distinct locations")
	}
}

// MeasureEntropy is bit-reproducible: it sums in address order, so
// repeated calls on one skewed stream return the same float64. (Summed in
// map iteration order, 50 calls on this stream gave 24 distinct values.)
func TestMeasureEntropyBitIdentical(t *testing.T) {
	a := Entropy(1<<16, 1<<16, 1, rng.New(1))
	want := math.Float64bits(MeasureEntropy(a))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(MeasureEntropy(a)); got != want {
			t.Fatalf("call %d: entropy bits %#x, first call %#x", i, got, want)
		}
	}
	// The value itself matches the definition to rounding.
	counts := map[uint64]int{}
	for _, x := range a {
		counts[x]++
	}
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(len(a))
		h -= p * math.Log2(p)
	}
	if got := MeasureEntropy(a); math.Abs(got-h) > 1e-9 {
		t.Errorf("entropy = %v, map oracle %v", got, h)
	}
}

// MaxContention agrees with a map count on dense, sparse, skewed and
// tiny streams.
func TestMaxContentionMatchesMap(t *testing.T) {
	g := rng.New(5)
	streams := map[string][]uint64{
		"empty":   nil,
		"single":  {1 << 63},
		"same":    AllSame(300, 9),
		"dense":   Uniform(1000, 500, g),
		"sparse":  Uniform(1000, 1<<40, g),
		"entropy": Entropy(4096, 4096, 3, g),
		"zipf":    Zipf(2000, 2000, 1.2, g),
		"extreme": {0, math.MaxUint64, 0, 7},
	}
	for name, a := range streams {
		counts := map[uint64]int{}
		want := 0
		for _, x := range a {
			counts[x]++
			want = max(want, counts[x])
		}
		if got := MaxContention(a); got != want {
			t.Errorf("%s: MaxContention = %d, map oracle %d", name, got, want)
		}
	}
}
