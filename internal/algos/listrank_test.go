package algos

import (
	"testing"
	"testing/quick"

	"dxbsp/internal/rng"
)

func randomList(n int, seed uint64) []int64 {
	perm := make([]int64, n)
	for i, v := range rng.New(seed).Perm(n) {
		perm[i] = int64(v)
	}
	return MakeList(perm)
}

func TestMakeListStructure(t *testing.T) {
	next := MakeList([]int64{2, 0, 1})
	// List order: 2 -> 0 -> 1(tail).
	if next[2] != 0 || next[0] != 1 || next[1] != 1 {
		t.Errorf("next = %v", next)
	}
	if MakeList(nil) != nil {
		t.Error("empty MakeList should be nil")
	}
}

func TestSerialListRank(t *testing.T) {
	next := MakeList([]int64{3, 1, 0, 2}) // 3 -> 1 -> 0 -> 2(tail)
	ranks := SerialListRank(next)
	want := []int64{1, 2, 0, 3}
	for i := range want {
		if ranks[i] != want[i] {
			t.Errorf("ranks = %v, want %v", ranks, want)
			break
		}
	}
}

func TestListRankWyllieMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 4096} {
		next := randomList(n, uint64(n))
		got := ListRankWyllie(newVM(), next)
		want := SerialListRank(next)
		for i := range want {
			if got.Ranks[i] != want[i] {
				t.Fatalf("n=%d: Ranks[%d] = %d, want %d", n, i, got.Ranks[i], want[i])
			}
		}
	}
}

func TestListRankRoundsLogarithmic(t *testing.T) {
	n := 1 << 12
	res := ListRankWyllie(newVM(), randomList(n, 7))
	// Wyllie halves the longest chain each round: ceil(lg n) + 1 rounds.
	if res.Rounds > 15 {
		t.Errorf("rounds = %d for n=4096, want ~12", res.Rounds)
	}
	if res.Rounds < 10 {
		t.Errorf("rounds = %d suspiciously low", res.Rounds)
	}
}

func TestListRankContentionPilesOntoTail(t *testing.T) {
	// The running max contention must grow geometrically: by the last
	// round about half the nodes read the tail.
	n := 1 << 12
	res := ListRankWyllie(newVM(), randomList(n, 9))
	last := res.RoundContention[len(res.RoundContention)-1]
	if last < n/4 {
		t.Errorf("final contention %d, want Θ(n)", last)
	}
	first := res.RoundContention[0]
	if first > 4 {
		t.Errorf("first-round contention %d, want ~1 (list is a permutation)", first)
	}
	for r := 1; r < len(res.RoundContention); r++ {
		if res.RoundContention[r] < res.RoundContention[r-1] {
			t.Errorf("running max contention decreased at round %d", r)
		}
	}
}

func TestListRankEmptyAndSingle(t *testing.T) {
	res := ListRankWyllie(newVM(), nil)
	if len(res.Ranks) != 0 {
		t.Error("empty list nonempty result")
	}
	res = ListRankWyllie(newVM(), []int64{0})
	if len(res.Ranks) != 1 || res.Ranks[0] != 0 {
		t.Errorf("single node: %+v", res)
	}
}

func TestListValidatePanics(t *testing.T) {
	for _, next := range [][]int64{
		{1, 0},    // two-cycle, no tail
		{5},       // out of range
		{2, 2, 2}, // in-degree 2 at node 2
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("list %v accepted", next)
				}
			}()
			ListRankWyllie(newVM(), next)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("MakeList of non-permutation accepted")
		}
	}()
	MakeList([]int64{0, 0})
}

func TestListRankProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		next := randomList(n, seed)
		got := ListRankWyllie(newVM(), next)
		want := SerialListRank(next)
		for i := range want {
			if got.Ranks[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// SerialListRank is the reference ranking.
func SerialListRank(next []int64) []int64 {
	n := len(next)
	validateList(next)
	ranks := make([]int64, n)
	// Find the tail, then walk from each node (memoized via reverse
	// topological order: compute by following with memo).
	memo := make([]int64, n)
	for i := range memo {
		memo[i] = -1
	}
	var rankOf func(i int64) int64
	rankOf = func(i int64) int64 {
		if next[i] == i {
			return 0
		}
		if memo[i] >= 0 {
			return memo[i]
		}
		// Iterative walk to avoid deep recursion on long lists.
		var path []int64
		j := i
		for next[j] != j && memo[j] < 0 {
			path = append(path, j)
			j = next[j]
		}
		base := int64(0)
		if memo[j] >= 0 {
			base = memo[j]
		}
		for k := len(path) - 1; k >= 0; k-- {
			base++
			memo[path[k]] = base
		}
		return memo[i]
	}
	for i := range ranks {
		ranks[i] = rankOf(int64(i))
	}
	return ranks
}
