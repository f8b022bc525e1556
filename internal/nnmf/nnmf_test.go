package nnmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"csmaterials/internal/matrix"
)

// lowRankMatrix builds a non-negative matrix of exact rank k as W·H with
// random non-negative factors, so NNMF should reconstruct it nearly
// perfectly.
func lowRankMatrix(rows, cols, k int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	w := matrix.Random(rows, k, rng)
	h := matrix.Random(k, cols, rng)
	return w.Mul(h)
}

// blockMatrix builds a matrix with `blocks` disjoint row/column blocks of
// ones — the idealized "types of courses" structure.
func blockMatrix(rowsPerBlock, colsPerBlock, blocks int) *matrix.Dense {
	a := matrix.New(rowsPerBlock*blocks, colsPerBlock*blocks)
	for b := 0; b < blocks; b++ {
		for i := 0; i < rowsPerBlock; i++ {
			for j := 0; j < colsPerBlock; j++ {
				a.Set(b*rowsPerBlock+i, b*colsPerBlock+j, 1)
			}
		}
	}
	return a
}

func factorizeOrDie(t *testing.T, a *matrix.Dense, opts Options) *Result {
	t.Helper()
	res, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFactorizeRejectsBadInput(t *testing.T) {
	a := lowRankMatrix(6, 8, 2, 1)
	if _, err := Factorize(a, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Factorize(a, Options{K: 7}); err == nil {
		t.Error("K > rows accepted")
	}
	neg := a.Clone()
	neg.Set(0, 0, -1)
	if _, err := Factorize(neg, Options{K: 2}); err == nil {
		t.Error("negative entry accepted")
	}
	nan := a.Clone()
	nan.Set(0, 0, math.NaN())
	if _, err := Factorize(nan, Options{K: 2}); err == nil {
		t.Error("NaN entry accepted")
	}
	zero := matrix.New(3, 3)
	if _, err := Factorize(zero, Options{K: 2}); err == nil {
		t.Error("all-zero matrix accepted")
	}
}

// TestEntryPointsRejectNormOverflow: finite entries whose squares sum
// past the float64 range are an error from both entry points, not a
// fit whose every residual is NaN.
func TestEntryPointsRejectNormOverflow(t *testing.T) {
	a := blockMatrix(3, 4, 3).Scale(1e160) // 9 × 12, 0-1 before scaling
	for name, factorize := range map[string]func() (*Result, error){
		"Factorize":    func() (*Result, error) { return Factorize(a, Options{K: 3}) },
		"FactorizeCSR": func() (*Result, error) { return FactorizeCSR(matrix.FromDense(a), Options{K: 3}) },
	} {
		if res, err := factorize(); err == nil || res != nil {
			t.Errorf("%s of a matrix scaled by 1e160: error %v, result %t; want an error and no result", name, err, res != nil)
		}
	}
}

// TestEntryPointsRejectBadOptions: options no loop can run are an error
// from every entry point, never a panic.
func TestEntryPointsRejectBadOptions(t *testing.T) {
	a := lowRankMatrix(6, 8, 2, 1)
	entries := map[string]func(Options) (*Result, error){
		"Factorize":    func(o Options) (*Result, error) { return Factorize(a, o) },
		"FactorizeCSR": func(o Options) (*Result, error) { return FactorizeCSR(matrix.FromDense(a), o) },
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"negative Restarts", Options{K: 2, Restarts: -1}},
		{"negative MaxIter", Options{K: 2, MaxIter: -1}},
		{"negative Restarts, NNDSVD", Options{K: 2, Restarts: -3, Init: InitNNDSVD}},
		{"zero K", Options{K: 0}},
		{"K above the dimensions", Options{K: 7}},
	} {
		for name, factorize := range entries {
			res, err := factorize(tc.opts)
			if err == nil || res != nil {
				t.Errorf("%s with %s: got %v, %v; want an error and no result", name, tc.name, res, err)
			}
		}
	}
}

func TestFactorizeShapes(t *testing.T) {
	a := lowRankMatrix(10, 15, 3, 2)
	res := factorizeOrDie(t, a, Options{K: 3, Seed: 1})
	if r, c := res.W.Dims(); r != 10 || c != 3 {
		t.Fatalf("W dims %dx%d", r, c)
	}
	if r, c := res.H.Dims(); r != 3 || c != 15 {
		t.Fatalf("H dims %dx%d", r, c)
	}
}

func TestFactorsNonNegative(t *testing.T) {
	a := lowRankMatrix(8, 12, 3, 3)
	for _, alg := range []Algorithm{MultiplicativeFrobenius, MultiplicativeKL, HALS} {
		res := factorizeOrDie(t, a, Options{K: 3, Algorithm: alg, Seed: 5})
		for _, m := range []*matrix.Dense{res.W, res.H} {
			for i := 0; i < m.Rows(); i++ {
				for _, v := range m.RowView(i) {
					if v < 0 {
						t.Fatalf("%v produced negative factor entry %v", alg, v)
					}
				}
			}
		}
	}
}

func TestLowRankRecovery(t *testing.T) {
	// A matrix of exact rank 3 must be reconstructed to small error.
	a := lowRankMatrix(12, 20, 3, 7)
	for _, alg := range []Algorithm{MultiplicativeFrobenius, HALS} {
		res := factorizeOrDie(t, a, Options{K: 3, Algorithm: alg, Seed: 3, Restarts: 3, MaxIter: 2000, Tol: 1e-10})
		if res.Err > 0.02 {
			t.Errorf("%v: relative error %v too high for exact low-rank input", alg, res.Err)
		}
	}
}

func TestKLRecovery(t *testing.T) {
	a := lowRankMatrix(10, 14, 2, 11)
	res := factorizeOrDie(t, a, Options{K: 2, Algorithm: MultiplicativeKL, Seed: 3, Restarts: 3, MaxIter: 2000, Tol: 1e-10})
	if res.Err > 0.05 {
		t.Errorf("KL: relative error %v too high", res.Err)
	}
}

func TestBlockStructureRecovery(t *testing.T) {
	// Disjoint blocks: each NNMF dimension should light up exactly one
	// block of rows. This is the idealized version of Figure 2.
	a := blockMatrix(3, 5, 3)
	res := factorizeOrDie(t, a, Options{K: 3, Seed: 9, Restarts: 5, MaxIter: 1000})
	// All rows of the same block must share the same dominant dimension,
	// and different blocks must get different dimensions.
	blockDim := make([]int, 3)
	for b := 0; b < 3; b++ {
		d := res.W.ArgMaxRow(b * 3)
		for i := 0; i < 3; i++ {
			if got := res.W.ArgMaxRow(b*3 + i); got != d {
				t.Fatalf("rows of block %d disagree on dominant dimension: %d vs %d", b, got, d)
			}
		}
		blockDim[b] = d
	}
	if blockDim[0] == blockDim[1] || blockDim[1] == blockDim[2] || blockDim[0] == blockDim[2] {
		t.Fatalf("blocks share dimensions: %v", blockDim)
	}
}

func TestResidualsMonotoneNonIncreasing(t *testing.T) {
	a := lowRankMatrix(10, 12, 4, 13)
	res := factorizeOrDie(t, a, Options{K: 3, Seed: 2, MaxIter: 200})
	for i := 1; i < len(res.Residuals); i++ {
		// Multiplicative updates are monotone for their objective; allow
		// tiny numerical jitter.
		if res.Residuals[i] > res.Residuals[i-1]+1e-9 {
			t.Fatalf("residual increased at iteration %d: %v -> %v", i, res.Residuals[i-1], res.Residuals[i])
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := lowRankMatrix(9, 11, 3, 17)
	r1 := factorizeOrDie(t, a, Options{K: 3, Seed: 42})
	r2 := factorizeOrDie(t, a, Options{K: 3, Seed: 42})
	if !r1.W.Equal(r2.W) || !r1.H.Equal(r2.H) {
		t.Fatal("same seed produced different factorizations")
	}
	r3 := factorizeOrDie(t, a, Options{K: 3, Seed: 43})
	if r1.W.Equal(r3.W) {
		t.Fatal("different seeds produced identical W (suspicious)")
	}
}

func TestRestartsPickBest(t *testing.T) {
	a := blockMatrix(2, 4, 3)
	single := factorizeOrDie(t, a, Options{K: 3, Seed: 1, Restarts: 1})
	multi := factorizeOrDie(t, a, Options{K: 3, Seed: 1, Restarts: 8})
	if multi.Err > single.Err+1e-12 {
		t.Fatalf("restarts made things worse: %v vs %v", multi.Err, single.Err)
	}
	if multi.Restart < 0 || multi.Restart >= 8 {
		t.Fatalf("winning restart index %d out of range", multi.Restart)
	}
}

func TestNNDSVDDeterministicAndGood(t *testing.T) {
	a := lowRankMatrix(10, 16, 3, 23)
	r1 := factorizeOrDie(t, a, Options{K: 3, Init: InitNNDSVD})
	r2 := factorizeOrDie(t, a, Options{K: 3, Init: InitNNDSVD})
	if !r1.W.Equal(r2.W) || !r1.H.Equal(r2.H) {
		t.Fatal("NNDSVD must be deterministic")
	}
	if r1.Err > 0.05 {
		t.Fatalf("NNDSVD error %v too high", r1.Err)
	}
}

func TestNNDSVDTallMatrix(t *testing.T) {
	// rows > cols exercises the AᵀA eigen branch.
	a := lowRankMatrix(20, 8, 2, 29)
	res := factorizeOrDie(t, a, Options{K: 2, Init: InitNNDSVD, MaxIter: 1000})
	if res.Err > 0.05 {
		t.Fatalf("NNDSVD (tall) error %v", res.Err)
	}
}

func TestConvergenceFlag(t *testing.T) {
	a := lowRankMatrix(8, 10, 2, 31)
	res := factorizeOrDie(t, a, Options{K: 2, Seed: 1, MaxIter: 2000, Tol: 1e-4})
	if !res.Converged {
		t.Fatal("expected convergence within 2000 iterations at loose tolerance")
	}
	res2 := factorizeOrDie(t, a, Options{K: 2, Seed: 1, MaxIter: 2, Tol: 1e-12})
	if res2.Converged {
		t.Fatal("2 iterations at tight tolerance should not converge")
	}
	if res2.Iterations != 2 {
		t.Fatalf("Iterations = %d, want 2", res2.Iterations)
	}
}

func TestCosineRedundancy(t *testing.T) {
	// Two identical rows -> redundancy 1.
	h := matrix.NewFromRows([][]float64{{1, 2, 3}, {2, 4, 6}, {1, 0, 0}})
	if got := CosineRedundancy(h); math.Abs(got-1) > 1e-12 {
		t.Fatalf("redundancy = %v, want 1", got)
	}
	// Orthogonal rows -> 0.
	h2 := matrix.NewFromRows([][]float64{{1, 0}, {0, 1}})
	if got := CosineRedundancy(h2); got != 0 {
		t.Fatalf("orthogonal redundancy = %v", got)
	}
}

func TestRedundancyDetectsOverfitK(t *testing.T) {
	// 2 true blocks factorized with k=4 should produce more redundant H
	// rows than k=2 — the paper's overfit signal.
	a := blockMatrix(4, 6, 2)
	diag, err := SelectK(a, []int{2, 4}, Options{Seed: 3, Restarts: 4, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if diag[1].Redundancy <= diag[0].Redundancy {
		t.Fatalf("k=4 redundancy %v not larger than k=2 %v", diag[1].Redundancy, diag[0].Redundancy)
	}
	// The exact value depends on the local optimum reached, but splitting 2
	// true blocks across 4 dimensions always forces substantial overlap.
	if diag[1].Redundancy < 0.5 {
		t.Fatalf("k=4 on 2-block data should be substantially redundant, got %v", diag[1].Redundancy)
	}
}

func TestSelectKReportsAllKs(t *testing.T) {
	a := lowRankMatrix(10, 12, 3, 37)
	diag, err := SelectK(a, []int{2, 3, 4}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(diag) != 3 {
		t.Fatalf("got %d diagnostics", len(diag))
	}
	for i, k := range []int{2, 3, 4} {
		if diag[i].K != k || diag[i].Result == nil {
			t.Fatalf("diag[%d] = %+v", i, diag[i])
		}
	}
	// Larger k cannot fit worse on the same data (given enough restarts
	// this holds with overwhelming probability; tolerate small slack).
	if diag[2].Err > diag[0].Err+0.05 {
		t.Fatalf("k=4 error %v much worse than k=2 %v", diag[2].Err, diag[0].Err)
	}
}

func TestSelectKPropagatesError(t *testing.T) {
	a := lowRankMatrix(4, 5, 2, 1)
	if _, err := SelectK(a, []int{2, 99}, Options{Seed: 1}); err == nil {
		t.Fatal("expected error for k=99")
	}
}

func TestEnumStrings(t *testing.T) {
	if InitRandom.String() != "random" || InitNNDSVD.String() != "nndsvd" {
		t.Fatal("Init strings wrong")
	}
	if MultiplicativeFrobenius.String() != "mu-frobenius" || HALS.String() != "hals" || MultiplicativeKL.String() != "mu-kl" {
		t.Fatal("Algorithm strings wrong")
	}
	if Init(9).String() == "" || Algorithm(9).String() == "" {
		t.Fatal("out-of-range String empty")
	}
}

func TestPropReconstructionErrorBounded(t *testing.T) {
	// For any non-negative matrix, the relative error after factorization
	// is in [0, 1]: WH=0 gives exactly 1, and updates never increase it.
	f := func(seed int64, r8, c8, k8 uint8) bool {
		rows := int(r8%6) + 3
		cols := int(c8%6) + 3
		k := int(k8%2) + 1
		if k > rows || k > cols {
			k = 1
		}
		rng := rand.New(rand.NewSource(seed))
		a := matrix.Random(rows, cols, rng)
		res, err := Factorize(a, Options{K: k, Seed: seed, MaxIter: 50})
		if err != nil {
			return false
		}
		return res.Err >= 0 && res.Err <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropScaleInvarianceOfRelativeError(t *testing.T) {
	// Scaling A by c>0 must not change the *relative* reconstruction
	// error of the scaled factorization (same seed, same iterations).
	f := func(seed int64) bool {
		a := lowRankMatrix(6, 8, 2, seed)
		r1, err1 := Factorize(a, Options{K: 2, Seed: 7, MaxIter: 100, Tol: 1e-12})
		r2, err2 := Factorize(a.Scale(3), Options{K: 2, Seed: 7, MaxIter: 100, Tol: 1e-12})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1.Err-r2.Err) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
