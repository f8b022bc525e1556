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
// worker gets its own csrFrobenius workspace.
func csrProblem(a *matrix.CSR, opts Options) (problem, Options, error) {
	rows, cols := a.Dims()
	opts, err := prepare(opts, rows, cols)
	if err != nil {
		return problem{}, opts, err
	}
	if a.AnyNegative() {
		return problem{}, opts, fmt.Errorf("nnmf: input matrix has negative entries")
	}
	normA := a.FrobeniusNorm()
	if normA == 0 {
		return problem{}, opts, errAllZero
	}
	return problem{
		rows: rows, cols: cols,
		// mean(A) for 0-1 matrices, without the dense expansion.
		mean:   normA * normA / float64(rows*cols),
		dense:  a.ToDense,
		kernel: func() kernel { return newCSRFrobenius(a, opts.K, opts.Eps, normA) },
	}, opts, nil
}

// csrFrobenius is the served update: Lee–Seung multiplicative Frobenius
// updates over a CSR matrix, in place, with every product written into
// one workspace allocated per restart worker. Each product keeps the
// operand order, zero-skips and summation order of the allocating
// expressions
//
//	H ← H ⊙ a.MulAtB(W).T() ⊘ (WᵀW·H)
//	W ← W ⊙ a.MulABt(H) ⊘ (W·HHᵀ)
//
// and of the residual's trace identity, so the factors and residuals
// are bit-identical to theirs. Two products are shared rather than
// recomputed: residual reuses the HHᵀ the W update formed, and the WᵀW
// it forms feeds the next update.
type csrFrobenius struct {
	a          *matrix.CSR
	eps, normA float64

	wtA, wtWH *matrix.Dense // k × cols
	wtW, hHt  *matrix.Dense // k × k
	aHt, wHHt *matrix.Dense // rows × k
	ht        *matrix.Dense // cols × k: H, read row-contiguously by the A-products
}

func newCSRFrobenius(a *matrix.CSR, k int, eps, normA float64) *csrFrobenius {
	rows, cols := a.Dims()
	return &csrFrobenius{
		a: a, eps: eps, normA: normA,
		wtA: matrix.New(k, cols), wtWH: matrix.New(k, cols),
		wtW: matrix.New(k, k), hHt: matrix.New(k, k),
		aHt: matrix.New(rows, k), wHHt: matrix.New(rows, k),
		ht: matrix.New(cols, k),
	}
}

func (s *csrFrobenius) start(w, h *matrix.Dense) {
	matrix.TransposeTo(s.ht, h)
	matrix.MulABtTo(s.hHt, h, h)
	matrix.MulAtBTo(s.wtW, w, w)
}

func (s *csrFrobenius) update(w, h *matrix.Dense) {
	s.a.MulBtATo(s.wtA, w)
	matrix.MulTo(s.wtWH, s.wtW, h)
	h.MulDivElem(s.wtA, s.wtWH, s.eps)

	matrix.TransposeTo(s.ht, h)
	s.a.MulTo(s.aHt, s.ht)
	matrix.MulABtTo(s.hHt, h, h)
	matrix.MulTo(s.wHHt, w, s.hHt)
	w.MulDivElem(s.aHt, s.wHHt, s.eps)

	matrix.MulAtBTo(s.wtW, w, w)
}

// residual computes ‖A − WH‖_F / normA without materializing WH:
// ‖A−WH‖² = ‖A‖² − 2·⟨A, WH⟩ + tr((WᵀW)(HHᵀ)). The inner product
// touches only the non-zeros of A; the trace term is k×k.
func (s *csrFrobenius) residual(w, _ *matrix.Dense) float64 {
	dot := s.a.InnerWithProductT(w, s.ht)
	trace := 0.0
	for i := 0; i < s.wtW.Rows(); i++ {
		hi := s.hHt.RowView(i)
		for j, v := range s.wtW.RowView(i) {
			trace += v * hi[j] // both symmetric
		}
	}
	errSq := s.normA*s.normA - 2*dot + trace
	if errSq < 0 {
		errSq = 0
	}
	return math.Sqrt(errSq) / s.normA
}
