package workloads

import "math/rand"

// SparseMatrix is a sparse matrix in the row-oriented compressed format the
// paper describes as "alike to the Harwell-Boeing format" (§V): row
// pointers into parallel column-index and value arrays.
type SparseMatrix struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the number of stored coefficients.
func (m *SparseMatrix) NNZ() int64 { return int64(len(m.Vals)) }

// RandomSparse builds a Rows×Cols matrix with approximately nnzPerRow
// non-null coefficients per row, as the paper's randomly-generated group
// (10^6×10^6 with 50 or 100 nnz/row; the harness scales sizes down).
func RandomSparse(seed int64, rows, cols, nnzPerRow int) *SparseMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := &SparseMatrix{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int64, rows+1),
	}
	for r := 0; r < rows; r++ {
		n := nnzPerRow/2 + rng.Intn(nnzPerRow+1) // average ≈ nnzPerRow
		cs := make(map[int32]struct{}, n)
		for len(cs) < n && len(cs) < cols {
			cs[int32(rng.Intn(cols))] = struct{}{}
		}
		sorted := make([]int32, 0, len(cs))
		for c := range cs {
			sorted = append(sorted, c)
		}
		// Insertion sort keeps the generator allocation-light and
		// deterministic.
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for _, c := range sorted {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, rng.Float64()*2-1)
		}
		m.RowPtr[r+1] = int64(len(m.Vals))
	}
	return m
}

// MultiplySeq computes y = m·x natively (reference output).
func (m *SparseMatrix) MultiplySeq(x []float64) []float64 {
	y := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var acc float64
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			acc += m.Vals[i] * x[m.ColIdx[i]]
		}
		y[r] = acc
	}
	return y
}
