package nnmf

import (
	"math"
	"math/rand"
	"testing"

	"csmaterials/internal/matrix"
)

func random01(rows, cols int, density float64, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				a.Set(i, j, 1)
			}
		}
	}
	a.Set(0, 0, 1) // never all-zero
	return a
}

func TestFactorizeCSRMatchesDense(t *testing.T) {
	// On a 0-1 matrix, the sparse path must reproduce the dense
	// multiplicative-Frobenius factorization exactly (same init, same
	// updates, only the evaluation order of the products differs).
	a := random01(15, 40, 0.15, 51)
	c := matrix.FromDense(a)
	opts := Options{K: 3, Seed: 9, MaxIter: 100, Tol: 1e-9}
	dense, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := FactorizeCSR(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.W.EqualTol(dense.W, 1e-8) || !sparse.H.EqualTol(dense.H, 1e-8) {
		t.Fatal("sparse factorization differs from dense")
	}
	if math.Abs(sparse.Err-dense.Err) > 1e-8 {
		t.Fatalf("sparse err %v vs dense %v", sparse.Err, dense.Err)
	}
}

func TestFactorizeCSRValidation(t *testing.T) {
	a := matrix.FromDense(random01(5, 6, 0.3, 1))
	if _, err := FactorizeCSR(a, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := FactorizeCSR(a, Options{K: 10}); err == nil {
		t.Error("oversized K accepted")
	}
	zero := matrix.FromDense(matrix.New(3, 3))
	if _, err := FactorizeCSR(zero, Options{K: 2}); err == nil {
		t.Error("all-zero accepted")
	}
	neg := matrix.New(2, 2)
	neg.Set(0, 0, -1)
	if _, err := FactorizeCSR(matrix.FromDense(neg), Options{K: 1}); err == nil {
		t.Error("negative entries accepted")
	}
}

// TestFactorizeCSRRejectsNonFinite: a NaN or infinite entry is
// refused, as Factorize refuses it, rather than fitted.
func TestFactorizeCSRRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		a := random01(5, 6, 0.3, 1)
		a.Set(2, 3, v)
		if _, err := FactorizeCSR(matrix.FromDense(a), Options{K: 2}); err == nil {
			t.Errorf("entry %v accepted", v)
		}
	}
}

func TestFactorizeCSRRestartsAndNNDSVD(t *testing.T) {
	a := random01(12, 25, 0.2, 77)
	c := matrix.FromDense(a)
	multi, err := FactorizeCSR(c, Options{K: 3, Seed: 1, Restarts: 4, MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	single, err := FactorizeCSR(c, Options{K: 3, Seed: 1, MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Err > single.Err+1e-12 {
		t.Fatalf("restarts worsened fit: %v vs %v", multi.Err, single.Err)
	}
	nn, err := FactorizeCSR(c, Options{K: 3, Init: InitNNDSVD, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if nn.Err <= 0 || nn.Err > 1 {
		t.Fatalf("NNDSVD sparse err %v", nn.Err)
	}
}

func TestSparseResidualIdentity(t *testing.T) {
	// The trace identity used by the sparse residual must agree with the
	// direct computation.
	a := random01(8, 12, 0.3, 91)
	c := matrix.FromDense(a)
	rng := rand.New(rand.NewSource(3))
	w := matrix.Random(8, 3, rng)
	h := matrix.Random(3, 12, rng)
	normA := a.FrobeniusNorm()
	direct := RelativeError(a, w, h, normA)
	viaIdentity := sparseRelativeError(c, w, h, normA)
	if math.Abs(direct-viaIdentity) > 1e-9 {
		t.Fatalf("residual identity broken: %v vs %v", direct, viaIdentity)
	}
}
