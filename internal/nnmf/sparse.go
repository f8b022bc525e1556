package nnmf

import (
	"context"
	"fmt"
	"math"

	"csmaterials/internal/matrix"
)

// FactorizeCSR computes an NNMF of a sparse non-negative matrix using
// multiplicative Frobenius updates whose A-products skip zeros — the
// right representation for course × curriculum matrices, which are 0-1
// with well under 20% density. It matches Factorize with
// MultiplicativeFrobenius on the dense expansion of a, at a fraction of
// the per-iteration cost (see BenchmarkSparseNNMF), and allocates
// nothing per iteration.
//
// Only the Frobenius multiplicative algorithm is implemented sparsely;
// Options.Algorithm is ignored.
func FactorizeCSR(a *matrix.CSR, opts Options) (*Result, error) {
	return FactorizeCSRCtx(context.Background(), a, opts)
}

// FactorizeCSRCtx is FactorizeCSR with cooperative cancellation; see
// FactorizeCtx for the contract.
func FactorizeCSRCtx(ctx context.Context, a *matrix.CSR, opts Options) (*Result, error) {
	p, opts, err := csrProblem(a, opts)
	if err != nil {
		return nil, err
	}
	return factorize(ctx, p, opts)
}

// csrProblem validates a sparse input and its options; each restart
// worker gets its own csrKernel workspace.
func csrProblem(a *matrix.CSR, opts Options) (problem, Options, error) {
	rows, cols := a.Dims()
	opts, err := prepare(opts, rows, cols)
	if err != nil {
		return problem{}, opts, err
	}
	if a.AnyNegative() {
		return problem{}, opts, fmt.Errorf("nnmf: input matrix has negative entries")
	}
	// The kernel's padded types stay exactly zero only while every
	// product they meet is finite.
	_, _, vals := a.Arrays()
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return problem{}, opts, fmt.Errorf("nnmf: input matrix has non-finite entry %v", v)
		}
	}
	normA := a.FrobeniusNorm()
	switch {
	case normA == 0:
		return problem{}, opts, errAllZero
	case math.IsInf(normA, 1):
		return problem{}, opts, errNormOverflow
	}
	ops := tiles // every restart of one fit runs the same routines
	return problem{
		rows: rows, cols: cols,
		// mean(A) for 0-1 matrices, without the dense expansion.
		mean:   normA * normA / float64(rows*cols),
		dense:  a.ToDense,
		kernel: func() kernel { return newCSRKernel(a, opts.K, opts.Eps, normA, ops) },
	}, opts, nil
}

// csrKernel is the served update: Lee–Seung multiplicative Frobenius
// updates over a CSR matrix,
//
//	H ← H ⊙ a.MulAtB(W).T() ⊘ (WᵀW·H)
//	W ← W ⊙ a.MulABt(H) ⊘ (W·HHᵀ)
//
// with the residual's trace identity ‖A−WH‖² = ‖A‖² − 2·⟨A, WH⟩ +
// tr((WᵀW)(HHᵀ)). Every product keeps the operand order, zero-skips
// and summation order of those allocating expressions, so the factors
// and residuals are bit-identical to theirs.
//
// For a whole run the kernel owns W and Hᵀ, each row cut into 4-wide
// tiles of types: every type-indexed loop keeps one tile in registers
// and runs once per tile. The types past k in the last tile start at
// zero and stay there — a multiplicative update cannot move a zero —
// and never enter WᵀW, HHᵀ or the trace, so every term they add to a
// real type's sum is either a skipped zero or a zero added to a sum
// that started at +0, and changes no bit.
//
// One iteration is two sweeps. The column sweep (H update, HHᵀ) does
// not read A. The row sweep is the one pass over A: per row it forms
// AHᵀ and W·HHᵀ, updates the row of W, and with the new row adds its
// terms to ⟨A, WH⟩, to the next iteration's WᵀA and to WᵀW, which the
// residual and the next H update share. The routines the sweeps spend
// their time in come from ops (see tileOps).
type csrKernel struct {
	rows, cols int
	k, nt      int // types, and 4-wide tiles of them
	rowPtr     []int
	colIdx     []int
	vals       []float64
	eps, normA float64

	w        []tile // rows × nt: W
	ht, next []tile // cols × nt: Hᵀ, and the buffer the H update writes
	wtA      []tile // cols × nt: (WᵀA)ᵀ of the current W
	wtW, hHt []tile // WᵀW and HHᵀ in blocks (see cell)
	whh      []tile // nt: one row of W·HHᵀ
	// diag receives the H update's diagonal HHᵀ block; as a field of
	// the heap-held kernel, handing ops a pointer to it allocates
	// nothing.
	diag [16]float64
	// hFinite records that every entry of H is finite, so that adding
	// WᵀW[t][u]·H[u][j] when WᵀW[t][u] is zero adds a zero: the H
	// update's zero-skip then changes nothing and is left out.
	hFinite bool
	ops     tileOps

	dw, dh *matrix.Dense // the factors start loaded; finish writes them back
}

// tile is four consecutive types of one row of W or Hᵀ.
type tile [4]float64

// tileOps are the routines a step spends its time in: the H update of
// one tile of types together with the diagonal HHᵀ block of the new
// tile, the W update of one tile of a row, and a row's terms of
// ⟨A, WH⟩ and WᵀA. goTiles is the reference and the only set off
// amd64; a set chosen by hostTiles must give its results bit for bit.
type tileOps struct {
	name    string
	updateH func(next, old, wtA, cw []tile, T int, eps float64, b *[16]float64)
	updateW func(w, b *tile, cols []int, vals []float64, ht []tile, nt, T int, eps float64)
	addRow  func(dot float64, wi []tile, cols []int, vals []float64, ht, wtA []tile) float64
}

var goTiles = tileOps{name: "go", updateH: updateHDiag, updateW: updateW, addRow: addRow}

// tiles is the set every CSR fit runs, chosen once for this CPU.
var tiles = hostTiles()

// Kernel names the tile routines this process's CSR fits run: "avx"
// for the 4-wide AVX set on amd64, "go" otherwise. Both give the same
// factors bit for bit; the AVX set is faster.
func Kernel() string { return tiles.name }

func newCSRKernel(a *matrix.CSR, k int, eps, normA float64, ops tileOps) *csrKernel {
	rows, cols := a.Dims()
	rowPtr, colIdx, vals := a.Arrays()
	nt := (k + 3) / 4
	return &csrKernel{
		rows: rows, cols: cols, k: k, nt: nt,
		rowPtr: rowPtr, colIdx: colIdx, vals: vals,
		eps: eps, normA: normA,
		w:  make([]tile, rows*nt),
		ht: make([]tile, cols*nt), next: make([]tile, cols*nt),
		wtA: make([]tile, cols*nt),
		wtW: make([]tile, 4*nt*nt), hHt: make([]tile, 4*nt*nt),
		whh: make([]tile, nt),
		ops: ops,
	}
}

// cell returns entry (r, c) of a k × k matrix m held in 4 × 4 blocks:
// for each tile of columns T, m[4nt·T+r] holds row r's entries in
// columns 4T..4T+3, so a product summing over r reads one output
// tile's coefficients contiguously. WᵀW is held transposed (the H
// update sums over its columns), HHᵀ as it is; the entries of types
// past k stay zero.
func (s *csrKernel) cell(m []tile, r, c int) *float64 {
	return &m[c>>2*4*s.nt+r][c&3]
}

// start loads w and h into tiles and forms the first iteration's WᵀA
// and WᵀW.
func (s *csrKernel) start(w, h *matrix.Dense) {
	s.dw, s.dh = w, h
	nt := s.nt
	clear(s.w)
	clear(s.ht)
	for i := 0; i < s.rows; i++ {
		for t, v := range w.RowView(i) {
			s.w[i*nt+t>>2][t&3] = v
		}
	}
	s.hFinite = true
	for t := 0; t < s.k; t++ {
		for j, v := range h.RowView(t) {
			s.ht[j*nt+t>>2][t&3] = v
			s.hFinite = s.hFinite && v-v == 0
		}
	}
	clear(s.wtA)
	clear(s.wtW)
	for i := 0; i < s.rows; i++ {
		wi := s.w[i*nt : i*nt+nt]
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		s.ops.addRow(0, wi, s.colIdx[lo:hi], s.vals[lo:hi], s.ht, s.wtA)
		s.addWtW(wi)
	}
}

// addWtW adds one row of W's terms to WᵀW, skipping a zero left
// operand as MulAtBTo does.
func (s *csrKernel) addWtW(wi []tile) {
	for t := 0; t < s.k; t++ {
		x := wi[t>>2][t&3]
		if x == 0 {
			continue
		}
		for u := 0; u < s.k; u++ {
			*s.cell(s.wtW, u, t) += x * wi[u>>2][u&3]
		}
	}
}

// step runs one iteration, both sweeps, and returns the residual of the
// updated factors.
func (s *csrKernel) step() float64 {
	s.sweepColumns()
	dot := s.sweepRows()
	trace := 0.0
	for t := 0; t < s.k; t++ {
		for u := 0; u < s.k; u++ {
			trace += *s.cell(s.wtW, u, t) * *s.cell(s.hHt, t, u)
		}
	}
	errSq := s.normA*s.normA - 2*dot + trace
	if errSq < 0 {
		errSq = 0
	}
	return math.Sqrt(errSq) / s.normA
}

// sweepColumns updates H one tile of types at a time, reading s.ht and
// writing s.next so that every tile sees the old H, with the diagonal
// HHᵀ block of each new tile; it swaps the buffers and then forms the
// HHᵀ blocks between two tiles.
func (s *csrKernel) sweepColumns() {
	nt := s.nt
	for T := 0; T < nt; T++ {
		cw := s.wtW[4*nt*T : 4*nt*(T+1)]
		if s.hFinite {
			s.ops.updateH(s.next, s.ht, s.wtA, cw, T, s.eps, &s.diag)
		} else {
			updateHSkipping(s.next, s.ht, s.wtA, cw, T, s.eps)
			s.diag = diagHHt(s.next, nt, T)
		}
		s.setHHt(T, T, s.diag)
	}
	s.ht, s.next = s.next, s.ht
	for T := 0; T < nt; T++ {
		for U := T + 1; U < nt; U++ {
			s.setHHt(T, U, blockHHt(s.ht, nt, T, U))
		}
	}
	// A non-finite entry of H makes its row's diagonal HHᵀ entry
	// non-finite.
	s.hFinite = true
	for t := 0; t < s.k; t++ {
		v := *s.cell(s.hHt, t, t)
		s.hFinite = s.hFinite && v-v == 0
	}
}

// updateHDiag is the Go tileOps.updateH: updateH, then the diagonal
// block of the new tile, in b.
func updateHDiag(next, old, wtA, cw []tile, T int, eps float64, b *[16]float64) {
	updateH(next, old, wtA, cw, T, eps)
	*b = diagHHt(next, len(cw)/4, T)
}

// updateH writes tile T of every column h of the updated H into next,
// h ⊙ (WᵀA)ⱼ ⊘ (WᵀW·h + eps), with cw the tile's blocks of WᵀW. With
// H finite, the terms of a zero WᵀW entry add zeros, so none is
// skipped.
func updateH(next, old, wtA, cw []tile, T int, eps float64) {
	nt := len(cw) / 4
	for j := 0; j+nt <= len(old); j += nt {
		o := old[j : j+nt]
		var d0, d1, d2, d3 float64
		for U := range o {
			x, c := &o[U], (*[4]tile)(cw[4*U:])
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			d0 += c[0][0] * x0
			d1 += c[0][1] * x0
			d2 += c[0][2] * x0
			d3 += c[0][3] * x0
			d0 += c[1][0] * x1
			d1 += c[1][1] * x1
			d2 += c[1][2] * x1
			d3 += c[1][3] * x1
			d0 += c[2][0] * x2
			d1 += c[2][1] * x2
			d2 += c[2][2] * x2
			d3 += c[2][3] * x2
			d0 += c[3][0] * x3
			d1 += c[3][1] * x3
			d2 += c[3][2] * x3
			d3 += c[3][3] * x3
		}
		h, a, n := &o[T], &wtA[j+T], &next[j+T]
		n[0] = h[0] * (a[0] / (d0 + eps))
		n[1] = h[1] * (a[1] / (d1 + eps))
		n[2] = h[2] * (a[2] / (d2 + eps))
		n[3] = h[3] * (a[3] / (d3 + eps))
	}
}

// updateHSkipping is updateH for an H with a non-finite entry: it
// skips the terms of zero WᵀW entries, as the dense product does.
func updateHSkipping(next, old, wtA, cw []tile, T int, eps float64) {
	nt := len(cw) / 4
	for j := 0; j+nt <= len(old); j += nt {
		o := old[j : j+nt]
		var d tile
		for U := range o {
			for m, x := range o[U] {
				for l, c := range cw[4*U+m] {
					if c != 0 {
						d[l] += c * x
					}
				}
			}
		}
		h, a, n := &o[T], &wtA[j+T], &next[j+T]
		for l := range n {
			n[l] = h[l] * (a[l] / (d[l] + eps))
		}
	}
}

// diagHHt sums tile T's block of HHᵀ over the columns of H, with one
// accumulator per distinct entry.
func diagHHt(ht []tile, nt, T int) [16]float64 {
	var c00, c01, c02, c03, c11, c12, c13, c22, c23, c33 float64
	for j := T; j < len(ht); j += nt {
		h := &ht[j]
		h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
		c00 += h0 * h0
		c01 += h0 * h1
		c02 += h0 * h2
		c03 += h0 * h3
		c11 += h1 * h1
		c12 += h1 * h2
		c13 += h1 * h3
		c22 += h2 * h2
		c23 += h2 * h3
		c33 += h3 * h3
	}
	return [16]float64{
		c00, c01, c02, c03,
		c01, c11, c12, c13,
		c02, c12, c22, c23,
		c03, c13, c23, c33,
	}
}

// blockHHt sums the block of HHᵀ between tiles T and U over the
// columns of H.
func blockHHt(ht []tile, nt, T, U int) (b [16]float64) {
	for j := 0; j+nt <= len(ht); j += nt {
		x, y := &ht[j+T], &ht[j+U]
		for l, xl := range x {
			r := (*tile)(b[4*l:])
			r[0] += xl * y[0]
			r[1] += xl * y[1]
			r[2] += xl * y[2]
			r[3] += xl * y[3]
		}
	}
	return b
}

// setHHt stores block b of HHᵀ, rows 4T.. and columns 4U.., and its
// mirror, leaving the entries of types past k at zero.
func (s *csrKernel) setHHt(T, U int, b [16]float64) {
	for l := 0; l < 4 && 4*T+l < s.k; l++ {
		for m := 0; m < 4 && 4*U+m < s.k; m++ {
			*s.cell(s.hHt, 4*T+l, 4*U+m) = b[4*l+m]
			*s.cell(s.hHt, 4*U+m, 4*T+l) = b[4*l+m]
		}
	}
}

// sweepRows updates W row by row over the new H and returns ⟨A, WH⟩ of
// the updated factors; along the way it forms the next iteration's WᵀA
// and WᵀW.
func (s *csrKernel) sweepRows() float64 {
	nt := s.nt
	clear(s.wtA)
	clear(s.wtW)
	dot := 0.0
	for i := 0; i < s.rows; i++ {
		wi := s.w[i*nt : i*nt+nt]
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		cols, vals := s.colIdx[lo:hi], s.vals[lo:hi]
		// W·HHᵀ reads the whole old row, so it is formed before any
		// tile of the row changes.
		for T := range s.whh {
			s.whh[T] = rowWHHt(wi, s.hHt[4*nt*T:4*nt*(T+1)])
		}
		for T := range wi {
			s.ops.updateW(&wi[T], &s.whh[T], cols, vals, s.ht, nt, T, s.eps)
		}
		dot = s.ops.addRow(dot, wi, cols, vals, s.ht, s.wtA)
		s.addWtW(wi)
	}
	return dot
}

// rowWHHt returns one output tile of W·HHᵀ for the row wi, with hb the
// tile's blocks of HHᵀ, skipping a zero entry of W as the dense product
// does.
func rowWHHt(wi, hb []tile) tile {
	var b0, b1, b2, b3 float64
	for U := range wi {
		for m, x := range wi[U] {
			if x == 0 {
				continue
			}
			g := &hb[4*U+m]
			b0 += x * g[0]
			b1 += x * g[1]
			b2 += x * g[2]
			b3 += x * g[3]
		}
	}
	return tile{b0, b1, b2, b3}
}

// updateW forms tile T of the row's AHᵀ over its non-zeros and applies
// the W update to the row's tile w, with b the tile of W·HHᵀ.
func updateW(w, b *tile, cols []int, vals []float64, ht []tile, nt, T int, eps float64) {
	var a0, a1, a2, a3 float64
	for p, j := range cols {
		v, h := vals[p], &ht[j*nt+T]
		a0 += v * h[0]
		a1 += v * h[1]
		a2 += v * h[2]
		a3 += v * h[3]
	}
	w[0] *= a0 / (b[0] + eps)
	w[1] *= a1 / (b[1] + eps)
	w[2] *= a2 / (b[2] + eps)
	w[3] *= a3 / (b[3] + eps)
}

// addRow adds the row wi's terms, over its non-zeros, to ⟨A, WH⟩ —
// continuing the sum dot and returning it — and to WᵀA.
func addRow(dot float64, wi []tile, cols []int, vals []float64, ht, wtA []tile) float64 {
	nt := len(wi)
	for p, j := range cols {
		v, j := vals[p], j*nt
		d := 0.0
		for T := range wi {
			w, h, a := &wi[T], &ht[j+T], &wtA[j+T]
			w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
			d += w0 * h[0]
			d += w1 * h[1]
			d += w2 * h[2]
			d += w3 * h[3]
			a[0] += v * w0
			a[1] += v * w1
			a[2] += v * w2
			a[3] += v * w3
		}
		dot += v * d
	}
	return dot
}

// finish writes the run's factors back into the matrices start loaded.
func (s *csrKernel) finish() {
	nt := s.nt
	for i := 0; i < s.rows; i++ {
		row := s.dw.RowView(i)
		for t := range row {
			row[t] = s.w[i*nt+t>>2][t&3]
		}
	}
	for t := 0; t < s.k; t++ {
		row := s.dh.RowView(t)
		for j := range row {
			row[j] = s.ht[j*nt+t>>2][t&3]
		}
	}
}
