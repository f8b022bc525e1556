package matrix

import (
	"fmt"
	"math"
)

// CSR is a compressed-sparse-row matrix. The course × curriculum matrices
// of this repository are 0-1 and very sparse (each course covers well
// under a fifth of the ~700 curriculum entries), so the NNMF products
// involving A — WᵀA and AHᵀ — can skip the zeros entirely.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// FromDense compresses a dense matrix, keeping entries with |v| > 0.
// The index and value slices are sized exactly: a CSR often outlives
// its dense source (factorize.Model keeps one per cached result).
func FromDense(a *Dense) *CSR {
	rows, cols := a.Dims()
	nnz := 0
	for _, v := range a.data {
		if v != 0 {
			nnz++
		}
	}
	c := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1),
		colIdx: make([]int, 0, nnz), vals: make([]float64, 0, nnz)}
	for i := 0; i < rows; i++ {
		for j, v := range a.RowView(i) {
			if v != 0 {
				c.colIdx = append(c.colIdx, j)
				c.vals = append(c.vals, v)
			}
		}
		c.rowPtr[i+1] = len(c.vals)
	}
	return c
}

// NewCSR wraps storage laid out as Arrays describes it; the matrix
// owns the slices from then on. It panics when their lengths do not
// fit the shape.
func NewCSR(rows, cols int, rowPtr, colIdx []int, vals []float64) *CSR {
	if len(rowPtr) != rows+1 || len(colIdx) != len(vals) || rowPtr[rows] != len(vals) {
		panic(fmt.Sprintf("matrix: NewCSR %dx%d with %d row pointers and %d/%d entries", rows, cols, len(rowPtr), len(colIdx), len(vals)))
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Dims returns (rows, cols).
func (c *CSR) Dims() (int, int) { return c.rows, c.cols }

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.vals) }

// Arrays returns the matrix's storage: row i holds vals[rowPtr[i]:rowPtr[i+1]]
// in columns colIdx[rowPtr[i]:rowPtr[i+1]], ascending. The slices alias
// the matrix and must not be modified. The NNMF kernel walks them
// directly, so that one sweep over A forms every product it needs.
func (c *CSR) Arrays() (rowPtr, colIdx []int, vals []float64) {
	return c.rowPtr, c.colIdx, c.vals
}

// Density returns NNZ / (rows·cols).
func (c *CSR) Density() float64 {
	return float64(c.NNZ()) / float64(c.rows*c.cols)
}

// ToDense expands the sparse matrix back to dense form.
func (c *CSR) ToDense() *Dense {
	out := New(c.rows, c.cols)
	for i := 0; i < c.rows; i++ {
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			out.Set(i, c.colIdx[p], c.vals[p])
		}
	}
	return out
}

// MulAtB returns Aᵀ × B where A is this sparse matrix and B is dense.
// A.rows must equal B.rows. The NNMF kernel forms its WᵀA inside its
// row sweep; this allocating form is the reference it is tested
// against.
func (c *CSR) MulAtB(b *Dense) *Dense {
	if c.rows != b.Rows() {
		panic(fmt.Sprintf("matrix: CSR MulAtB shape mismatch %dx%d vs %dx%d", c.rows, c.cols, b.Rows(), b.Cols()))
	}
	out := New(c.cols, b.Cols())
	for i := 0; i < c.rows; i++ {
		bi := b.RowView(i)
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			row := out.RowView(c.colIdx[p])
			v := c.vals[p]
			for j, bij := range bi {
				row[j] += v * bij
			}
		}
	}
	return out
}

// MulABt returns A × Bᵀ with A sparse and B dense. The NNMF kernel
// forms its AHᵀ inside its row sweep; this allocating form is the
// reference it is tested against.
func (c *CSR) MulABt(b *Dense) *Dense {
	if c.cols != b.Cols() {
		panic(fmt.Sprintf("matrix: CSR MulABt shape mismatch %dx%d vs %dx%d", c.rows, c.cols, b.Rows(), b.Cols()))
	}
	out := New(c.rows, b.Rows())
	for i := 0; i < c.rows; i++ {
		oi := out.RowView(i)
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			k := c.colIdx[p]
			v := c.vals[p]
			for j := 0; j < b.Rows(); j++ {
				oi[j] += v * b.At(j, k)
			}
		}
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of the stored entries.
func (c *CSR) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range c.vals {
		s += v * v
	}
	return math.Sqrt(s)
}

// InnerWithProduct returns ⟨A, W·H⟩ = Σ over the non-zeros of A of
// a_ij · (W_i · H_:j), without forming W·H. W must be rows×k and H k×cols.
// The NNMF kernel forms it inside its row sweep; this form is its
// reference.
func (c *CSR) InnerWithProduct(w, h *Dense) float64 {
	if w.Rows() != c.rows || h.Cols() != c.cols || w.Cols() != h.Rows() {
		panic(fmt.Sprintf("matrix: InnerWithProduct shape mismatch A %dx%d, W %dx%d, H %dx%d",
			c.rows, c.cols, w.Rows(), w.Cols(), h.Rows(), h.Cols()))
	}
	k := w.Cols()
	s := 0.0
	for i := 0; i < c.rows; i++ {
		wi := w.RowView(i)
		for p := c.rowPtr[i]; p < c.rowPtr[i+1]; p++ {
			j := c.colIdx[p]
			dot := 0.0
			for t := 0; t < k; t++ {
				dot += wi[t] * h.At(t, j)
			}
			s += c.vals[p] * dot
		}
	}
	return s
}

// AnyNegative reports whether any stored entry is negative.
func (c *CSR) AnyNegative() bool {
	for _, v := range c.vals {
		if v < 0 {
			return true
		}
	}
	return false
}
