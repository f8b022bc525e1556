// Package nnmf implements Non-Negative Matrix Factorization from scratch —
// the analysis engine of the paper (§4.1). Given a non-negative matrix A
// (courses × curriculum entries), it finds W (courses × k) and H
// (k × curriculum entries) with non-negative entries such that A ≈ W·H.
//
// Three algorithms are provided:
//
//   - Multiplicative updates minimizing the Frobenius norm (Lee & Seung
//     2000) — the classical NNMF the paper cites.
//   - Multiplicative updates minimizing generalized Kullback-Leibler
//     divergence.
//   - HALS (hierarchical alternating least squares) coordinate descent,
//     matching the default algorithm of scikit-learn's NMF, which the
//     paper used ("scikit learn v1.3.0 with default parameters").
//
// Initialization is either uniform random (the paper's choice) or NNDSVD
// (deterministic, SVD-seeded), and multiple random restarts can be
// requested, keeping the factorization with the lowest reconstruction
// error.
package nnmf

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"csmaterials/internal/matrix"
	"csmaterials/internal/stats"
)

// Init selects the initialization strategy.
type Init int

const (
	// InitRandom seeds W and H with uniform random entries scaled to the
	// magnitude of A (the paper's configuration).
	InitRandom Init = iota
	// InitNNDSVD seeds W and H from the truncated SVD of A
	// (Boutsidis & Gallopoulos 2008); deterministic.
	InitNNDSVD
)

func (i Init) String() string {
	switch i {
	case InitRandom:
		return "random"
	case InitNNDSVD:
		return "nndsvd"
	default:
		return fmt.Sprintf("Init(%d)", int(i))
	}
}

// Algorithm selects the update rule.
type Algorithm int

const (
	// MultiplicativeFrobenius is the Lee-Seung update for squared error.
	MultiplicativeFrobenius Algorithm = iota
	// MultiplicativeKL is the Lee-Seung update for generalized KL divergence.
	MultiplicativeKL
	// HALS is hierarchical alternating least squares coordinate descent.
	HALS
)

func (a Algorithm) String() string {
	switch a {
	case MultiplicativeFrobenius:
		return "mu-frobenius"
	case MultiplicativeKL:
		return "mu-kl"
	case HALS:
		return "hals"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a factorization. The zero value is not usable: K
// must be set. All other fields have sensible defaults applied by
// Factorize.
type Options struct {
	// K is the inner dimension (number of course types to extract).
	K int
	// Init selects the initialization strategy (default InitRandom).
	Init Init
	// Algorithm selects the update rule (default MultiplicativeFrobenius).
	Algorithm Algorithm
	// MaxIter bounds the number of update iterations (default 300).
	MaxIter int
	// Tol stops iteration when the relative improvement of the
	// reconstruction error between checks falls below it (default 1e-5).
	Tol float64
	// Seed seeds random initialization; restarts use Seed, Seed+1, ...
	Seed int64
	// Restarts > 1 runs that many random restarts and keeps the best
	// factorization (default 1). Ignored for InitNNDSVD, which is
	// deterministic.
	Restarts int
	// Eps guards divisions in the multiplicative updates (default 1e-12).
	Eps float64
	// L1H applies an L1 penalty to H under the HALS algorithm, driving
	// small H entries to exact zero — sparser, more interpretable types.
	// Ignored by the multiplicative algorithms.
	L1H float64
	// L1W is the corresponding penalty on W.
	L1W float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 300
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	if o.Eps == 0 {
		o.Eps = 1e-12
	}
	return o
}

// Result holds a factorization A ≈ W·H and its convergence trace.
type Result struct {
	W, H *matrix.Dense
	// Iterations actually performed (of the winning restart).
	Iterations int
	// TotalIterations is the work actually done: the sum of iterations
	// across every restart.
	TotalIterations int
	// Converged reports whether the tolerance was reached before MaxIter.
	Converged bool
	// Residuals traces the relative Frobenius reconstruction error
	// ‖A−WH‖_F / ‖A‖_F at every iteration of the winning restart.
	Residuals []float64
	// Err is the final relative reconstruction error.
	Err float64
	// Restart is the index of the winning restart.
	Restart int
}

// Factorize computes an NNMF of a with the given options.
func Factorize(a *matrix.Dense, opts Options) (*Result, error) {
	return FactorizeCtx(context.Background(), a, opts)
}

// FactorizeCtx is Factorize with cooperative cancellation: the iteration
// loop checks ctx between updates and returns ctx.Err() as soon as the
// context is done, so a dead client or a tripped timeout stops the CPU
// work instead of letting it converge for nobody. Cancellation does not
// affect the numbers: a factorization that runs to completion is
// byte-identical with or without a context.
func FactorizeCtx(ctx context.Context, a *matrix.Dense, opts Options) (*Result, error) {
	rows, cols := a.Dims()
	opts, err := prepare(opts, rows, cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		for _, v := range a.RowView(i) {
			if v < 0 {
				return nil, fmt.Errorf("nnmf: input matrix has negative entry %v", v)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nnmf: input matrix has non-finite entry %v", v)
			}
		}
	}
	normA := a.FrobeniusNorm()
	switch {
	case normA == 0:
		return nil, errAllZero
	case math.IsInf(normA, 1):
		return nil, errNormOverflow
	}
	return factorize(ctx, problem{
		rows: rows, cols: cols, mean: a.Mean(),
		dense:  func() *matrix.Dense { return a },
		kernel: func() kernel { return &denseKernel{a: a, normA: normA, opts: opts} },
	}, opts)
}

var errAllZero = fmt.Errorf("nnmf: input matrix is all zeros")

// errNormOverflow rejects finite entries so large that the sum of their
// squares overflows: every residual would be NaN.
var errNormOverflow = fmt.Errorf("nnmf: input matrix's Frobenius norm overflows float64")

// prepare applies the defaults and rejects the options no entry point
// can run: K outside [1, min(rows, cols)] and a negative Restarts or
// MaxIter.
func prepare(opts Options, rows, cols int) (Options, error) {
	opts = opts.withDefaults()
	switch {
	case opts.K <= 0:
		return opts, fmt.Errorf("nnmf: K must be positive, got %d", opts.K)
	case opts.K > rows || opts.K > cols:
		return opts, fmt.Errorf("nnmf: K=%d exceeds matrix dimensions %dx%d", opts.K, rows, cols)
	case opts.Restarts < 0:
		return opts, fmt.Errorf("nnmf: Restarts must not be negative, got %d", opts.Restarts)
	case opts.MaxIter < 0:
		return opts, fmt.Errorf("nnmf: MaxIter must not be negative, got %d", opts.MaxIter)
	}
	return opts, nil
}

// kernel is one update rule over one matrix format — all that differs
// between the entry points. A run hands the kernel its factors once,
// steps it, and takes the factors back once; in between the kernel may
// hold them in its own layout and carry products from one step to the
// next.
type kernel interface {
	// start begins a run from the factors w, h.
	start(w, h *matrix.Dense)
	// step applies one update round and returns ‖A − W·H‖_F / ‖A‖_F of
	// the updated factors.
	step() float64
	// finish writes the run's factors back into the w, h given to start.
	finish()
}

// problem is one validated factorization input.
type problem struct {
	rows, cols int
	// mean is the mean of A: it scales random initialization.
	mean float64
	// dense returns A densely, for NNDSVD initialization.
	dense func() *matrix.Dense
	// kernel returns the kernel one restart worker runs; a kernel is
	// never shared between goroutines.
	kernel func() kernel
}

// randomInit fills w and h with uniform draws, W then H in row-major
// order, scaled like scikit-learn by sqrt(mean(A)/K), which keeps W·H at
// the magnitude of A so early updates are well-conditioned.
func randomInit(w, h *matrix.Dense, mean float64, rng *rand.Rand) {
	scale := math.Sqrt(mean / float64(w.Cols()))
	for _, m := range [2]*matrix.Dense{w, h} {
		for i := 0; i < m.Rows(); i++ {
			row := m.RowView(i)
			for j := range row {
				row[j] = rng.Float64() * scale
			}
		}
	}
}

// run is the one iteration loop: it steps the kernel from res.W and
// res.H until the residual stalls or MaxIter is reached, recording every
// residual in res, and has the kernel write the final factors back into
// res.W and res.H. The stall is measured against the first residual
// (scikit-learn's criterion).
func run(ctx context.Context, kern kernel, res *Result, opts Options) error {
	kern.start(res.W, res.H)
	prev, base := math.Inf(1), 0.0
	for it := 0; it < opts.MaxIter; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e := kern.step()
		res.Residuals = append(res.Residuals, e)
		res.Iterations = it + 1
		if it == 0 {
			base, prev = e, e
			continue
		}
		// The <= matters: once the residual bottoms out exactly (prev ==
		// e, possibly 0), a strict inequality would never trigger.
		if prev-e <= opts.Tol*base {
			res.Converged = true
			break
		}
		prev = e
	}
	kern.finish()
	res.Err = res.Residuals[len(res.Residuals)-1]
	return nil
}

// denseKernel runs an update rule over a dense A: the KL and HALS
// ablations and the dense Frobenius reference path. It updates the
// run's factors in place and each step allocates its products; only the
// served CSR path (csrKernel) is tuned.
type denseKernel struct {
	a     *matrix.Dense
	normA float64
	opts  Options
	w, h  *matrix.Dense
}

func (k *denseKernel) start(w, h *matrix.Dense) { k.w, k.h = w, h }

func (k *denseKernel) step() float64 {
	switch k.opts.Algorithm {
	case MultiplicativeKL:
		stepKL(k.a, k.w, k.h, k.opts.Eps)
	case HALS:
		stepHALS(k.a, k.w, k.h, k.opts.Eps, k.opts.L1W, k.opts.L1H)
	default:
		stepFrobenius(k.a, k.w, k.h, k.opts.Eps)
	}
	return RelativeError(k.a, k.w, k.h, k.normA)
}

func (k *denseKernel) finish() {}

// RelativeError returns ‖A − W·H‖_F / normA. Pass a.FrobeniusNorm() (or
// any positive normalizer) as normA.
func RelativeError(a, w, h *matrix.Dense, normA float64) float64 {
	return a.Sub(w.Mul(h)).FrobeniusNorm() / normA
}

// stepFrobenius applies one round of Lee-Seung multiplicative updates for
// the squared-error objective, in place:
//
//	H ← H ⊙ (WᵀA) ⊘ (WᵀWH)
//	W ← W ⊙ (AHᵀ) ⊘ (WHHᵀ)
func stepFrobenius(a, w, h *matrix.Dense, eps float64) {
	wtA := w.MulAtB(a)
	wtWH := w.MulAtB(w).Mul(h)
	h.MulDivElem(wtA, wtWH, eps)

	aHt := a.MulABt(h)
	wHHt := w.Mul(h.MulABt(h))
	w.MulDivElem(aHt, wHHt, eps)
}

// stepKL applies one round of multiplicative updates for the generalized
// Kullback-Leibler divergence, in place:
//
//	H ← H ⊙ (Wᵀ(A ⊘ WH)) ⊘ (Wᵀ𝟙)
//	W ← W ⊙ ((A ⊘ WH)Hᵀ) ⊘ (𝟙Hᵀ)
func stepKL(a, w, h *matrix.Dense, eps float64) {
	// H update.
	ratio := a.DivElem(w.Mul(h), eps)
	num := w.MulAtB(ratio)
	colSumW := w.ColSums() // (Wᵀ𝟙)_t, one per type
	for t := range colSumW {
		ht, nt := h.RowView(t), num.RowView(t)
		for j, v := range ht {
			ht[j] = v * nt[j] / (colSumW[t] + eps)
		}
	}

	// W update with the updated H.
	ratio = a.DivElem(w.Mul(h), eps)
	num = ratio.MulABt(h)
	rowSumH := h.RowSums() // (𝟙Hᵀ)_t
	for i := 0; i < w.Rows(); i++ {
		wi, ni := w.RowView(i), num.RowView(i)
		for t, v := range wi {
			wi[t] = v * ni[t] / (rowSumH[t] + eps)
		}
	}
}

// stepHALS applies one round of hierarchical alternating least squares,
// in place: each column of W (and row of H) is updated in closed form
// holding the others fixed, then clamped to non-negativity. Positive
// l1w/l1h shift the closed-form solution toward zero before clamping
// (soft thresholding), yielding exactly sparse factors.
func stepHALS(a, w, h *matrix.Dense, eps, l1w, l1h float64) {
	k := w.Cols()

	// Update rows of H: H[t,:] ← max(0, H[t,:] + (WᵀA − WᵀW·H)[t,:] / (WᵀW)[t,t])
	wtA := w.MulAtB(a)
	wtW := w.MulAtB(w)
	for t := 0; t < k; t++ {
		denom := wtW.At(t, t) + eps
		ht := h.RowView(t)
		// grad[t,:] = wtA[t,:] − Σ_s wtW[t,s]·H[s,:]
		for j := range ht {
			g := wtA.At(t, j) - l1h
			for s := 0; s < k; s++ {
				g -= wtW.At(t, s) * h.At(s, j)
			}
			v := ht[j] + g/denom
			if v < 0 {
				v = 0
			}
			ht[j] = v
		}
	}

	// Update columns of W symmetrically.
	aHt := a.MulABt(h)
	hHt := h.MulABt(h)
	rows := w.Rows()
	for t := 0; t < k; t++ {
		denom := hHt.At(t, t) + eps
		for i := 0; i < rows; i++ {
			g := aHt.At(i, t) - l1w
			for s := 0; s < k; s++ {
				g -= w.At(i, s) * hHt.At(s, t)
			}
			v := w.At(i, t) + g/denom
			if v < 0 {
				v = 0
			}
			w.Set(i, t, v)
		}
	}
}

// nndsvd computes the non-negative double SVD initialization: the leading
// k singular triplets of A, with each (u_t, v_t) replaced by its dominant
// non-negative part. Singular pairs are obtained from the eigensystem of
// AᵀA (or AAᵀ, whichever is smaller).
func nndsvd(a *matrix.Dense, k int) (w, h *matrix.Dense) {
	rows, cols := a.Dims()
	w = matrix.New(rows, k)
	h = matrix.New(k, cols)

	var vals []float64
	var u, v *matrix.Dense
	if rows <= cols {
		// Eigen of A·Aᵀ gives U; V = Aᵀ·U / σ.
		gram := a.MulABt(a)
		vals, u = matrix.TopEigenSym(gram, k)
		v = matrix.New(cols, k)
		for t := 0; t < k; t++ {
			sigma := math.Sqrt(math.Max(vals[t], 0))
			if sigma == 0 {
				continue
			}
			ut := u.Col(t)
			for j := 0; j < cols; j++ {
				s := 0.0
				for i := 0; i < rows; i++ {
					s += a.At(i, j) * ut[i]
				}
				v.Set(j, t, s/sigma)
			}
		}
	} else {
		gram := a.MulAtB(a)
		vals, v = matrix.TopEigenSym(gram, k)
		u = matrix.New(rows, k)
		for t := 0; t < k; t++ {
			sigma := math.Sqrt(math.Max(vals[t], 0))
			if sigma == 0 {
				continue
			}
			vt := v.Col(t)
			for i := 0; i < rows; i++ {
				s := 0.0
				for j := 0; j < cols; j++ {
					s += a.At(i, j) * vt[j]
				}
				u.Set(i, t, s/sigma)
			}
		}
	}

	for t := 0; t < k; t++ {
		sigma := math.Sqrt(math.Max(vals[t], 0))
		ut, vt := u.Col(t), v.Col(t)
		if t == 0 {
			// The leading singular vectors of a non-negative matrix can be
			// chosen non-negative (Perron-Frobenius); flip sign if needed.
			if sum(ut) < 0 {
				neg(ut)
				neg(vt)
			}
			for i, x := range ut {
				w.Set(i, t, math.Sqrt(sigma)*math.Max(x, 0))
			}
			for j, x := range vt {
				h.Set(t, j, math.Sqrt(sigma)*math.Max(x, 0))
			}
			continue
		}
		up, un := split(ut)
		vp, vn := split(vt)
		upn, vpn := norm2(up), norm2(vp)
		unn, vnn := norm2(un), norm2(vn)
		mp := upn * vpn
		mn := unn * vnn
		var uu, vv []float64
		var m float64
		if mp >= mn {
			uu, vv, m = up, vp, mp
			if upn > 0 {
				scaleVec(uu, 1/upn)
			}
			if vpn > 0 {
				scaleVec(vv, 1/vpn)
			}
		} else {
			uu, vv, m = un, vn, mn
			if unn > 0 {
				scaleVec(uu, 1/unn)
			}
			if vnn > 0 {
				scaleVec(vv, 1/vnn)
			}
		}
		c := math.Sqrt(sigma * m)
		for i, x := range uu {
			w.Set(i, t, c*x)
		}
		for j, x := range vv {
			h.Set(t, j, c*x)
		}
	}

	// Replace exact zeros with a small epsilon so multiplicative updates
	// can move them (zeros are absorbing states under ⊙ updates).
	tiny := a.Mean() * 1e-4
	w = w.Apply(func(_, _ int, v float64) float64 {
		if v == 0 {
			return tiny
		}
		return v
	})
	h = h.Apply(func(_, _ int, v float64) float64 {
		if v == 0 {
			return tiny
		}
		return v
	})
	return w, h
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func neg(xs []float64) {
	for i := range xs {
		xs[i] = -xs[i]
	}
}

// split returns the positive part and the magnitude of the negative part.
func split(xs []float64) (pos, negPart []float64) {
	pos = make([]float64, len(xs))
	negPart = make([]float64, len(xs))
	for i, x := range xs {
		if x > 0 {
			pos[i] = x
		} else {
			negPart[i] = -x
		}
	}
	return pos, negPart
}

func norm2(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}

func scaleVec(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

// CosineRedundancy returns the maximum pairwise cosine similarity between
// the rows of H. The paper uses near-duplicate H rows (two dimensions
// "almost identical") as the signal that k is too large; values close to
// 1 indicate overfitting.
func CosineRedundancy(h *matrix.Dense) float64 {
	k := h.Rows()
	max := 0.0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if c := stats.Cosine(h.RowView(i), h.RowView(j)); c > max {
				max = c
			}
		}
	}
	return max
}

// KDiagnostics summarizes one candidate k during model selection.
type KDiagnostics struct {
	K          int
	Err        float64 // relative reconstruction error
	Redundancy float64 // max pairwise cosine among H rows
	Result     *Result
}

// SelectK factorizes a for each candidate k and reports reconstruction
// error and H-row redundancy, automating the paper's manual inspection
// across k = 2, 3, 4.
func SelectK(a *matrix.Dense, ks []int, opts Options) ([]KDiagnostics, error) {
	out := make([]KDiagnostics, 0, len(ks))
	for _, k := range ks {
		o := opts
		o.K = k
		res, err := Factorize(a, o)
		if err != nil {
			return nil, fmt.Errorf("nnmf: SelectK at k=%d: %w", k, err)
		}
		out = append(out, KDiagnostics{K: k, Err: res.Err, Redundancy: CosineRedundancy(res.H), Result: res})
	}
	return out, nil
}
