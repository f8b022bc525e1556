// Package matrix provides a dense float64 matrix type and the linear
// algebra needed by the rest of the repository: element-wise arithmetic,
// serial and goroutine-parallel matrix multiplication, norms, reductions,
// and a symmetric Jacobi eigendecomposition used by the PCA and classical
// MDS baselines.
//
// The package is deliberately self-contained (stdlib only) and favors
// predictable, allocation-conscious code over generality. Matrices are
// stored row-major. Dimension mismatches are programming errors and
// panic with a descriptive message, mirroring the convention of most Go
// numeric libraries.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized r×c matrix.
func New(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("matrix: non-positive dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromSlice returns an r×c matrix backed by a copy of data, which must
// have length r*c and is interpreted row-major.
func NewFromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: data length %d does not match %dx%d", len(data), r, c))
	}
	m := New(r, c)
	copy(m.data, data)
	return m
}

// NewFromRows builds a matrix from a slice of equal-length rows.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: empty row data")
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Random returns an r×c matrix with entries drawn uniformly from [0, 1)
// using rng. A nil rng panics: every randomized routine in this repository
// takes an explicit source so experiments stay reproducible.
func Random(r, c int, rng *rand.Rand) *Dense {
	if rng == nil {
		panic("matrix: Random requires a non-nil *rand.Rand")
	}
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.Float64()
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// RowView returns the i-th row as a slice aliasing the matrix storage.
// Mutating the slice mutates the matrix.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Row returns a copy of the i-th row.
func (m *Dense) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.RowView(i))
	return out
}

// Col returns a copy of the j-th column.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: column %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies row into the i-th row.
func (m *Dense) SetRow(i int, row []float64) {
	if len(row) != m.cols {
		panic(fmt.Sprintf("matrix: SetRow length %d, want %d", len(row), m.cols))
	}
	copy(m.RowView(i), row)
}

// SetCol copies col into the j-th column.
func (m *Dense) SetCol(j int, col []float64) {
	if len(col) != m.rows {
		panic(fmt.Sprintf("matrix: SetCol length %d, want %d", len(col), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = col[i]
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense { return TransposeTo(New(m.cols, m.rows), m) }

// TransposeTo writes mᵀ into dst, which must be m.Cols() × m.Rows(), and
// returns dst.
func TransposeTo(dst, m *Dense) *Dense {
	if dst.rows != m.cols || dst.cols != m.rows {
		panic(fmt.Sprintf("matrix: TransposeTo shape mismatch %dx%d into %dx%d", m.rows, m.cols, dst.rows, dst.cols))
	}
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			dst.data[j*m.rows+i] = v
		}
	}
	return dst
}

// Equal reports whether m and n have the same shape and identical entries.
func (m *Dense) Equal(n *Dense) bool { return m.EqualTol(n, 0) }

// EqualTol reports whether m and n have the same shape and entries that
// differ by at most tol in absolute value.
func (m *Dense) EqualTol(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns m + n.
func (m *Dense) Add(n *Dense) *Dense {
	m.sameShape(n, "Add")
	out := m.Clone()
	for i, v := range n.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m - n.
func (m *Dense) Sub(n *Dense) *Dense {
	m.sameShape(n, "Sub")
	out := m.Clone()
	for i, v := range n.data {
		out.data[i] -= v
	}
	return out
}

// MulElem returns the element-wise (Hadamard) product m ⊙ n.
func (m *Dense) MulElem(n *Dense) *Dense {
	m.sameShape(n, "MulElem")
	out := m.Clone()
	for i, v := range n.data {
		out.data[i] *= v
	}
	return out
}

// DivElem returns the element-wise quotient m ⊘ n, guarding each divisor
// with eps to avoid division by zero (the standard trick in NNMF
// multiplicative updates).
func (m *Dense) DivElem(n *Dense, eps float64) *Dense {
	m.sameShape(n, "DivElem")
	out := m.Clone()
	for i, v := range n.data {
		out.data[i] /= v + eps
	}
	return out
}

// MulDivElem scales m in place by num ⊘ (den + eps), element-wise: one
// multiplicative NNMF update, m ⊙ (num ⊘ den) as MulElem and DivElem
// compute it, without their temporaries.
func (m *Dense) MulDivElem(num, den *Dense, eps float64) {
	m.sameShape(num, "MulDivElem")
	m.sameShape(den, "MulDivElem")
	md := m.data
	nd, dd := num.data[:len(md)], den.data[:len(md)]
	for i := range md {
		md[i] *= nd[i] / (dd[i] + eps)
	}
}

// Scale returns s * m.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Apply returns a new matrix with f applied to every element. f receives
// the row, column, and current value.
func (m *Dense) Apply(f func(i, j int, v float64) float64) *Dense {
	out := m.Clone()
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[i*m.cols+j] = f(i, j, out.data[i*m.cols+j])
		}
	}
	return out
}

func (m *Dense) sameShape(n *Dense, op string) {
	if m.rows != n.rows || m.cols != n.cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, n.rows, n.cols))
	}
}

// Sum returns the sum of all entries.
func (m *Dense) Sum() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all entries.
func (m *Dense) Mean() float64 { return m.Sum() / float64(len(m.data)) }

// MaxAbs returns the largest absolute value among the entries.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Max returns the largest entry and its position.
func (m *Dense) Max() (v float64, i, j int) {
	v = math.Inf(-1)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if x := m.data[r*m.cols+c]; x > v {
				v, i, j = x, r, c
			}
		}
	}
	return v, i, j
}

// FrobeniusNorm returns sqrt(sum of squared entries).
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// RowSums returns the per-row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for _, v := range m.RowView(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// ColSums returns the per-column sums.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		ri := m.RowView(i)
		for j, v := range ri {
			out[j] += v
		}
	}
	return out
}

// ArgMaxRow returns the index of the largest entry in row i.
func (m *Dense) ArgMaxRow(i int) int {
	row := m.RowView(i)
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// NormalizeRowsL1 scales each row to sum to one; rows that sum to zero are
// left untouched. It returns a new matrix.
func (m *Dense) NormalizeRowsL1() *Dense {
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.RowView(i)
		s := 0.0
		for _, v := range row {
			s += v
		}
		if s == 0 {
			continue
		}
		for j := range row {
			row[j] /= s
		}
	}
	return out
}

// CenterCols subtracts from each column its mean and returns the centered
// matrix together with the column means (needed by PCA).
func (m *Dense) CenterCols() (*Dense, []float64) {
	means := m.ColSums()
	for j := range means {
		means[j] /= float64(m.rows)
	}
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.RowView(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
	return out, means
}

// String renders the matrix with 4-decimal entries; large matrices are
// elided in the middle. Intended for debugging and test failure output.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d\n", m.rows, m.cols)
	const maxShow = 12
	for i := 0; i < m.rows; i++ {
		if m.rows > maxShow && i == maxShow/2 {
			b.WriteString("...\n")
			i = m.rows - maxShow/2
		}
		row := m.RowView(i)
		for j, v := range row {
			if m.cols > maxShow && j == maxShow/2 {
				b.WriteString(" ...")
				j = m.cols - maxShow/2
				for ; j < m.cols; j++ {
					fmt.Fprintf(&b, " %7.4f", row[j])
				}
				break
			}
			fmt.Fprintf(&b, " %7.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
