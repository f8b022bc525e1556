package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSparse01 builds a random 0-1 dense matrix with the given density.
func randomSparse01(rows, cols int, density float64, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	a := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				a.Set(i, j, 1)
			}
		}
	}
	return a
}

func TestCSRRoundTrip(t *testing.T) {
	a := randomSparse01(13, 29, 0.15, 1)
	c := FromDense(a)
	if !c.ToDense().Equal(a) {
		t.Fatal("CSR round trip lost entries")
	}
	if r, cols := c.Dims(); r != 13 || cols != 29 {
		t.Fatalf("Dims = %d,%d", r, cols)
	}
	// NNZ matches the dense count.
	nnz := 0
	for i := 0; i < 13; i++ {
		for _, v := range a.RowView(i) {
			if v != 0 {
				nnz++
			}
		}
	}
	if c.NNZ() != nnz {
		t.Fatalf("NNZ = %d, want %d", c.NNZ(), nnz)
	}
	if d := c.Density(); d <= 0 || d >= 1 {
		t.Fatalf("Density = %v", d)
	}
}

func TestCSRFrobeniusMatchesDense(t *testing.T) {
	a := randomSparse01(9, 17, 0.2, 2)
	if got, want := FromDense(a).FrobeniusNorm(), a.FrobeniusNorm(); !almostEqual(got, want, 1e-12) {
		t.Fatalf("CSR norm %v, dense %v", got, want)
	}
}

func TestCSRAnyNegative(t *testing.T) {
	a := randomSparse01(4, 4, 0.5, 3)
	if FromDense(a).AnyNegative() {
		t.Fatal("0-1 matrix reported negative")
	}
	a.Set(0, 0, -1)
	if !FromDense(a).AnyNegative() {
		t.Fatal("negative entry missed")
	}
}

func TestCSRMulAtBMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomSparse01(11, 23, 0.2, 7)
	c := FromDense(a)
	w := Random(11, 4, rng)
	if !c.MulAtB(w).EqualTol(a.MulAtB(w), 1e-10) {
		t.Fatal("CSR MulAtB differs from dense")
	}
}

func TestCSRMulABtMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSparse01(11, 23, 0.2, 9)
	c := FromDense(a)
	h := Random(4, 23, rng)
	if !c.MulABt(h).EqualTol(a.MulABt(h), 1e-10) {
		t.Fatal("CSR MulABt differs from dense")
	}
}

func TestCSRInnerWithProductMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomSparse01(10, 15, 0.25, 11)
	c := FromDense(a)
	w := Random(10, 3, rng)
	h := Random(3, 15, rng)
	want := a.MulElem(w.Mul(h)).Sum()
	got := c.InnerWithProduct(w, h)
	if !almostEqual(got, want, 1e-9) {
		t.Fatalf("InnerWithProduct = %v, want %v", got, want)
	}
}

func TestCSRShapePanics(t *testing.T) {
	a := FromDense(randomSparse01(3, 4, 0.5, 12))
	for name, f := range map[string]func(){
		"MulAtB":           func() { a.MulAtB(New(4, 2)) },
		"MulABt":           func() { a.MulABt(New(2, 3)) },
		"InnerWithProduct": func() { a.InnerWithProduct(New(3, 2), New(3, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestPropCSREquivalence(t *testing.T) {
	f := func(seed int64, r8, c8, k8 uint8) bool {
		rows, cols := int(r8%8)+2, int(c8%8)+2
		k := int(k8%3) + 1
		a := randomSparse01(rows, cols, 0.3, seed)
		// Ensure non-empty.
		a.Set(0, 0, 1)
		c := FromDense(a)
		rng := rand.New(rand.NewSource(seed + 1))
		w := Random(rows, k, rng)
		h := Random(k, cols, rng)
		return c.MulAtB(w).EqualTol(a.MulAtB(w), 1e-9) &&
			c.MulABt(h).EqualTol(a.MulABt(h), 1e-9) &&
			almostEqual(c.InnerWithProduct(w, h), a.MulElem(w.Mul(h)).Sum(), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
