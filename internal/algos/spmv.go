package algos

import (
	"fmt"

	"dxbsp/internal/core"
	"dxbsp/internal/rng"
	"dxbsp/internal/vector"
)

// This file implements the paper's sparse matrix–vector multiplication
// experiment (Figure 12). The matrix is stored in compressed row format;
// the computation gathers source-vector entries by column index, multiplies
// elementwise with the non-zero values, and reduces each row with a
// segmented sum [BHZ93] — so latency is hidden regardless of the matrix
// structure, and the only contention-carrying step is the gather: its
// per-location contention equals the maximum column frequency. The
// workload densifies one column to a parameterized length, reproducing the
// paper's "length of the dense column" sweep.

// CSR is a sparse matrix in compressed row storage.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64 // len Rows+1
	ColIdx     []int64 // len NNZ
	Val        []int64 // len NNZ (integer values keep the simulated machine exact)
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RandomCSR builds a rows x cols matrix with nnzPerRow random non-zeros
// per row (column indices drawn uniformly, duplicates within a row
// allowed, as in the paper's synthetic workload), then makes column
// denseCol appear in the first denseLen rows (replacing each such row's
// first entry), producing a maximum column frequency of about denseLen.
func RandomCSR(rows, cols, nnzPerRow, denseLen int, g *rng.Xoshiro256) *CSR {
	if rows <= 0 || cols <= 0 || nnzPerRow <= 0 {
		panic(fmt.Sprintf("algos: RandomCSR(%d,%d,%d)", rows, cols, nnzPerRow))
	}
	if denseLen > rows {
		denseLen = rows
	}
	m := &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int64, rows+1),
		ColIdx: make([]int64, 0, rows*nnzPerRow),
		Val:    make([]int64, 0, rows*nnzPerRow),
	}
	denseCol := int64(cols / 2)
	for r := 0; r < rows; r++ {
		m.RowPtr[r] = int64(len(m.ColIdx))
		for j := 0; j < nnzPerRow; j++ {
			var c int64
			if j == 0 && r < denseLen {
				c = denseCol
			} else {
				c = int64(g.Intn(cols))
			}
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, int64(g.Intn(8)+1))
		}
	}
	m.RowPtr[rows] = int64(len(m.ColIdx))
	return m
}

// SpMVResult reports one multiplication.
type SpMVResult struct {
	Y []int64
	// GatherContention is the max per-location contention of the column
	// gather (≈ dense column length).
	GatherContention int
	// PredictedBSP and PredictedDXBSP are the model predictions for the
	// gather superstep, for the Figure 12 comparison.
	PredictedBSP   float64
	PredictedDXBSP float64
}

// SpMV computes y = A*x on vm with the segmented-operation formulation of
// [BHZ93]: gather x by column index, multiply by values, segmented-sum by
// rows.
func SpMV(vm *vector.Machine, a *CSR, x []int64) SpMVResult {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("algos: SpMV: x has %d entries for %d columns", len(x), a.Cols))
	}
	nnz := a.NNZ()
	xv := vm.AllocInit(x)
	col := vm.AllocInit(a.ColIdx)
	val := vm.AllocInit(a.Val)

	// Predictions for the gather superstep (the contention carrier).
	mach := vm.Mach()
	addrs := make([]uint64, nnz)
	for i, c := range a.ColIdx {
		addrs[i] = xv.Base + uint64(c)
	}
	prof := core.ComputeProfileCompact(core.NewPattern(addrs, mach.Procs), core.InterleaveMap{Banks: mach.Banks})
	res := SpMVResult{
		GatherContention: prof.MaxLoc,
		PredictedBSP:     mach.PredictBSP(prof.Loads),
		PredictedDXBSP:   mach.PredictDXBSP(prof.Loads),
	}

	// Gather x entries by column index; multiply with values.
	gx := vm.Alloc(nnz)
	vm.Gather(gx, xv, col)
	prod := vm.Alloc(nnz)
	vm.Map2(prod, gx, val, func(p, v int64) int64 { return p * v }, 1)

	// Segment flags from RowPtr (empty rows produce no flag — their sum
	// is zero by construction below).
	flags := vm.Alloc(nnz)
	for r := 0; r < a.Rows; r++ {
		if a.RowPtr[r] < a.RowPtr[r+1] {
			flags.Data[a.RowPtr[r]] = 1
		}
	}
	vm.ChargeElementwise(a.Rows, 1)

	// Segmented inclusive sums: exclusive seg-scan + element, then pick
	// the last element of each non-empty segment.
	scan := vm.Alloc(nnz)
	vm.SegScanAdd(scan, prod, flags)
	incl := vm.Alloc(nnz)
	vm.Map2(incl, scan, prod, func(s, p int64) int64 { return s + p }, 1)

	res.Y = make([]int64, a.Rows)
	lastIdx := make([]int64, 0, a.Rows)
	rowsWith := make([]int, 0, a.Rows)
	for r := 0; r < a.Rows; r++ {
		if a.RowPtr[r] < a.RowPtr[r+1] {
			lastIdx = append(lastIdx, a.RowPtr[r+1]-1)
			rowsWith = append(rowsWith, r)
		}
	}
	if len(lastIdx) > 0 {
		li := vm.AllocInit(lastIdx)
		out := vm.Alloc(len(lastIdx))
		vm.Gather(out, incl, li) // κ=1: one read per segment end
		for i, r := range rowsWith {
			res.Y[r] = out.Data[i]
		}
		vm.ChargeElementwise(len(rowsWith), 1)
	}
	return res
}

// SerialSpMV is the reference y = A*x.
func SerialSpMV(a *CSR, x []int64) []int64 {
	y := make([]int64, a.Rows)
	for r := 0; r < a.Rows; r++ {
		var acc int64
		for i := a.RowPtr[r]; i < a.RowPtr[r+1]; i++ {
			acc += a.Val[i] * x[a.ColIdx[i]]
		}
		y[r] = acc
	}
	return y
}
