package hashfn

import (
	"testing"
	"testing/quick"

	"dxbsp/internal/patterns"
	"dxbsp/internal/rng"
)

func TestHashRange(t *testing.T) {
	g := rng.New(1)
	for _, f := range Families(9, g) {
		limit := uint64(1) << f.Bits()
		gg := rng.New(2)
		for i := 0; i < 10000; i++ {
			x := gg.Uint64()
			if h := f.Hash(x); h >= limit {
				t.Fatalf("%s: Hash(%#x) = %d >= %d", f.Name(), x, h, limit)
			}
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	g := rng.New(3)
	f := NewCubic(10, g)
	for i := uint64(0); i < 1000; i++ {
		if f.Hash(i) != f.Hash(i) {
			t.Fatal("hash not a function")
		}
	}
}

func TestLinearTwoUniversalEmpirically(t *testing.T) {
	// For 2-universal families, Pr[h(x)=h(y)] ≈ 2/2^m for multiplicative
	// hashing (DHKP bound). Estimate the collision rate over random pairs
	// and many hash draws.
	const m = 8
	g := rng.New(4)
	pairs := 200
	draws := 200
	collisions := 0
	for i := 0; i < pairs; i++ {
		x, y := g.Uint64(), g.Uint64()
		if x == y {
			continue
		}
		for j := 0; j < draws; j++ {
			f := NewLinear(m, g)
			if f.Hash(x) == f.Hash(y) {
				collisions++
			}
		}
	}
	rate := float64(collisions) / float64(pairs*draws)
	bound := 2.0 / float64(int(1)<<m) // DHKP: ≤ 2/2^m
	if rate > bound*1.8 {
		t.Errorf("collision rate %v exceeds 1.8× the 2-universal bound %v", rate, bound)
	}
}

func TestHashSpreadsWorstCasePattern(t *testing.T) {
	// Stride-of-banks pattern: identity puts everything in one bank; each
	// hash family spreads it to near-uniform.
	const mBits = 9
	banks := 1 << mBits
	n := 8 * banks
	addrs := patterns.WorstCaseBank(n, banks)
	g := rng.New(5)

	if got := maxBankLoad(Identity{M: mBits}, addrs); got != n {
		t.Fatalf("identity max bank load = %d, want %d", got, n)
	}
	for _, f := range []Func{NewLinear(mBits, g), NewQuadratic(mBits, g), NewCubic(mBits, g)} {
		// Expect close to n/banks (=8) with fluctuation; certainly far
		// below full serialization.
		if got := maxBankLoad(f, addrs); got > n/8 {
			t.Errorf("%s: max bank load %d, want near %d", f.Name(), got, n/banks)
		}
	}
}

// maxBankLoad is the most references addrs put on one bank under f.
func maxBankLoad(f Func, addrs []uint64) int {
	load := make([]int, 1<<f.Bits())
	most := 0
	for _, a := range addrs {
		b := f.Hash(a)
		load[b]++
		most = max(most, load[b])
	}
	return most
}

func TestOpsCostOrdering(t *testing.T) {
	g := rng.New(6)
	fams := Families(10, g)
	prev := -1.0
	for _, f := range fams {
		c := f.Ops().Cost()
		if c < prev {
			t.Errorf("cost not increasing: %s costs %v after %v", f.Name(), c, prev)
		}
		prev = c
	}
	if (Identity{M: 10}).Ops().Cost() != 0 {
		t.Error("identity should cost 0")
	}
	if got := (Linear{M: 10}).Ops().Cost(); got != 2 {
		t.Errorf("linear cost = %v, want 2", got)
	}
	if got := (Cubic{M: 10}).Ops().Cost(); got != 7 {
		t.Errorf("cubic cost = %v, want 7", got)
	}
}

func TestCheckBitsPanics(t *testing.T) {
	for _, m := range []uint{0, 64, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("m=%d should panic", m)
				}
			}()
			NewLinear(m, rng.New(1))
		}()
	}
}

func TestMapAdapter(t *testing.T) {
	f := Identity{M: 6}
	m := Map{F: f}
	if m.NumBanks() != 64 {
		t.Errorf("NumBanks = %d", m.NumBanks())
	}
	if m.Bank(130) != 2 {
		t.Errorf("Bank(130) = %d, want 2", m.Bank(130))
	}
}

func TestLog2Banks(t *testing.T) {
	cases := map[int]uint{1: 0, 2: 1, 64: 6, 1024: 10}
	for banks, want := range cases {
		if got := Log2Banks(banks); got != want {
			t.Errorf("Log2Banks(%d) = %d, want %d", banks, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two should panic")
		}
	}()
	Log2Banks(100)
}

func TestHashPropertyQuick(t *testing.T) {
	// Property: all families stay in range for arbitrary inputs and seeds.
	f := func(seed, x uint64) bool {
		g := rng.New(seed)
		for _, h := range Families(11, g) {
			if h.Hash(x) >= 1<<11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkLinearHash(b *testing.B) {
	f := NewLinear(10, rng.New(1))
	var s uint64
	for i := 0; i < b.N; i++ {
		s = f.Hash(uint64(i))
	}
	_ = s
}

func BenchmarkQuadraticHash(b *testing.B) {
	f := NewQuadratic(10, rng.New(1))
	var s uint64
	for i := 0; i < b.N; i++ {
		s = f.Hash(uint64(i))
	}
	_ = s
}

func BenchmarkCubicHash(b *testing.B) {
	f := NewCubic(10, rng.New(1))
	var s uint64
	for i := 0; i < b.N; i++ {
		s = f.Hash(uint64(i))
	}
	_ = s
}
