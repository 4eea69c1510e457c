package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("iteration %d: %#x != %#x", i, av, bv)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the canonical C implementation.
	s := NewSplitMix64(1234567)
	got := []uint64{s.Next(), s.Next(), s.Next()}
	want := []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value %d: got %#x want %#x", i, got[i], want[i])
		}
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("iteration %d: %#x != %#x", i, av, bv)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(99)
	b := a.Split()
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[a.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 1000; i++ {
		if seen[b.Uint64()] {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("split stream collided with parent %d times", collisions)
	}
}

func TestUint64nRange(t *testing.T) {
	g := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 100, 1 << 20, 1<<63 + 5} {
		for i := 0; i < 200; i++ {
			if v := g.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for n == %d", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared test over 10 buckets; very loose threshold to keep the
	// test robust while still catching gross bias (e.g. modulo bias).
	g := New(12345)
	const buckets = 10
	const samples = 100000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[g.Uint64n(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; p=0.001 critical value is ~27.9.
	if chi2 > 27.9 {
		t.Errorf("chi-squared %.2f exceeds 27.9; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(8)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %.4f far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(5)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := g.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermProperty(t *testing.T) {
	// Property: for any seed and size, Perm returns a valid permutation.
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw % 512)
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	g := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = g.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	g := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = g.Uint64n(1000003)
	}
	_ = sink
}

func TestCloneReplaysStream(t *testing.T) {
	g := New(42)
	g.Uint64() // advance off the seed state
	c := g.Clone()
	for i := 0; i < 100; i++ {
		if a, b := g.Uint64(), c.Uint64(); a != b {
			t.Fatalf("draw %d: original %d, clone %d", i, a, b)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := New(7)
	c := g.Clone()
	g.Uint64() // advancing the original must not move the clone
	c2 := g.Clone()
	if a, b := c.Uint64(), c2.Uint64(); a == b {
		t.Fatalf("clone shares state with original: %d == %d", a, b)
	}
}
