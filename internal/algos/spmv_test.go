package algos

import (
	"fmt"
	"testing"

	"dxbsp/internal/rng"
)

func TestCSRValidate(t *testing.T) {
	m := RandomCSR(100, 200, 5, 0, rng.New(1))
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 500 {
		t.Errorf("NNZ = %d", m.NNZ())
	}
	bad := &CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1}, ColIdx: []int64{0}, Val: []int64{1}}
	if err := bad.validate(); err == nil {
		t.Error("short RowPtr accepted")
	}
	bad2 := &CSR{Rows: 1, Cols: 2, RowPtr: []int64{0, 1}, ColIdx: []int64{5}, Val: []int64{1}}
	if err := bad2.validate(); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestRandomCSRDenseColumn(t *testing.T) {
	rows := 1000
	for _, dl := range []int{0, 10, 100, 1000, 5000} {
		m := RandomCSR(rows, 512, 4, dl, rng.New(2))
		want := dl
		if want > rows {
			want = rows
		}
		got := maxColumnFrequency(m)
		if got < want {
			t.Errorf("denseLen=%d: max column frequency %d < %d", dl, got, want)
		}
		// Random collisions can add a little, but not double.
		if want > 50 && got > want+rows/10 {
			t.Errorf("denseLen=%d: max column frequency %d >> %d", dl, got, want)
		}
	}
}

// maxColumnFrequency returns the largest number of entries in any one
// column: the gather contention of SpMV.
func maxColumnFrequency(m *CSR) int {
	counts := make([]int, m.Cols)
	maxC := 0
	for _, c := range m.ColIdx {
		counts[c]++
		maxC = max(maxC, counts[c])
	}
	return maxC
}

func TestSpMVMatchesSerial(t *testing.T) {
	g := rng.New(3)
	a := RandomCSR(200, 300, 6, 40, g)
	x := make([]int64, a.Cols)
	for i := range x {
		x[i] = int64(g.Intn(100))
	}
	vm := newVM()
	res := SpMV(vm, a, x)
	want := SerialSpMV(a, x)
	for r := range want {
		if res.Y[r] != want[r] {
			t.Fatalf("row %d: got %d, want %d", r, res.Y[r], want[r])
		}
	}
	if vm.Cycles() <= 0 {
		t.Error("no cycles charged")
	}
}

func TestSpMVEmptyRows(t *testing.T) {
	// Matrix with empty rows: their y must be 0.
	a := &CSR{
		Rows: 4, Cols: 3,
		RowPtr: []int64{0, 2, 2, 3, 3},
		ColIdx: []int64{0, 1, 2},
		Val:    []int64{1, 2, 3},
	}
	if err := a.validate(); err != nil {
		t.Fatal(err)
	}
	x := []int64{10, 20, 30}
	res := SpMV(newVM(), a, x)
	want := []int64{50, 0, 90, 0}
	for i := range want {
		if res.Y[i] != want[i] {
			t.Fatalf("Y = %v, want %v", res.Y, want)
		}
	}
}

func TestSpMVContentionTracksDenseColumn(t *testing.T) {
	g := rng.New(4)
	rows := 4096
	var prev int
	for _, dl := range []int{1, 64, 512, 4096} {
		a := RandomCSR(rows, 1024, 4, dl, g.Split())
		res := SpMV(newVM(), a, make([]int64, a.Cols))
		if res.GatherContention < dl {
			t.Errorf("denseLen=%d: gather contention %d", dl, res.GatherContention)
		}
		if res.GatherContention < prev {
			t.Errorf("contention not monotone at denseLen=%d", dl)
		}
		prev = res.GatherContention
	}
}

func TestSpMVPredictionsDiverge(t *testing.T) {
	// The Figure 12 shape: BSP's prediction ignores the dense column;
	// the (d,x)-BSP prediction grows with it.
	g := rng.New(5)
	rows := 4096
	small := SpMV(newVM(), RandomCSR(rows, 1024, 4, 1, g.Split()), make([]int64, 1024))
	big := SpMV(newVM(), RandomCSR(rows, 1024, 4, rows, g.Split()), make([]int64, 1024))
	if big.PredictedBSP > small.PredictedBSP*1.05 {
		t.Errorf("BSP prediction should be ~flat: %v vs %v", small.PredictedBSP, big.PredictedBSP)
	}
	if big.PredictedDXBSP < 5*small.PredictedDXBSP {
		t.Errorf("(d,x)-BSP prediction should grow: %v vs %v", small.PredictedDXBSP, big.PredictedDXBSP)
	}
}

func TestSpMVPanics(t *testing.T) {
	a := RandomCSR(10, 10, 2, 0, rng.New(6))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong x length")
		}
	}()
	SpMV(newVM(), a, make([]int64, 5))
}

func TestRandomCSRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RandomCSR(0, 10, 1, 0, rng.New(1))
}

// validate checks the structural invariants of m: the oracle the tests
// hold RandomCSR and hand-built matrices to.
func (m *CSR) validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("algos: CSR: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != int64(m.NNZ()) {
		return fmt.Errorf("algos: CSR: RowPtr endpoints %d..%d, want 0..%d", m.RowPtr[0], m.RowPtr[m.Rows], m.NNZ())
	}
	if len(m.Val) != m.NNZ() {
		return fmt.Errorf("algos: CSR: %d values for %d column indices", len(m.Val), m.NNZ())
	}
	for r := 0; r < m.Rows; r++ {
		if m.RowPtr[r] > m.RowPtr[r+1] {
			return fmt.Errorf("algos: CSR: row %d has negative length", r)
		}
	}
	for _, c := range m.ColIdx {
		if c < 0 || c >= int64(m.Cols) {
			return fmt.Errorf("algos: CSR: column index %d out of [0,%d)", c, m.Cols)
		}
	}
	return nil
}
