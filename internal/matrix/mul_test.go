package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestMulSmall(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(7, 7, rng)
	if !a.Mul(Identity(7)).EqualTol(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Identity(7).Mul(a).EqualTol(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestMulRectangular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	b := NewFromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	want := NewFromRows([][]float64{{7, 16}, {6, 15}})
	if got := a.Mul(b); !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(97, 65, rng)
	b := Random(65, 83, rng)
	serial := a.MulSerial(b)
	for _, workers := range []int{1, 2, 4, 8, 200} {
		par := a.MulParallel(b, workers)
		if !par.EqualTol(serial, 1e-10) {
			t.Fatalf("MulParallel(workers=%d) differs from serial", workers)
		}
	}
	// workers <= 0 means GOMAXPROCS.
	if !a.MulParallel(b, 0).EqualTol(serial, 1e-10) {
		t.Fatal("MulParallel(0) differs from serial")
	}
}

func TestMulLargeUsesParallelPathCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Random(80, 80, rng) // 80^3 > parallelThreshold
	b := Random(80, 80, rng)
	if !a.Mul(b).EqualTol(a.MulSerial(b), 1e-10) {
		t.Fatal("auto-parallel Mul differs from serial")
	}
}

func TestMulAtB(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	b := NewFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	want := a.T().Mul(b)
	if got := a.MulAtB(b); !got.EqualTol(want, 1e-12) {
		t.Fatalf("MulAtB = %v, want %v", got, want)
	}
}

func TestMulABt(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := NewFromRows([][]float64{{1, 1, 1}, {2, 0, 2}})
	want := a.Mul(b.T())
	if got := a.MulABt(b); !got.EqualTol(want, 1e-12) {
		t.Fatalf("MulABt = %v, want %v", got, want)
	}
}

func TestMulAtBShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).MulAtB(New(3, 2))
}

func TestMulABtShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).MulABt(New(3, 2))
}

func BenchmarkMulSerial128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := Random(128, 128, rng)
	y := Random(128, 128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulSerial(y)
	}
}

func BenchmarkMulParallel128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := Random(128, 128, rng)
	y := Random(128, 128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulParallel(y, 0)
	}
}

// dirty returns an r×c matrix of stale non-zero values, so a kernel that
// accumulates into its destination without clearing it first fails.
func dirty(r, c int) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = float64(i%7) + 0.5
	}
	return m
}

func bitsEqual(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// TestDestinationKernelsOverwrite: the To kernels must replace whatever
// their destination held with exactly the product the allocating form
// returns.
func TestDestinationKernelsOverwrite(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, b := Random(5, 4, rng), Random(4, 6, rng)
	a.Set(1, 2, 0) // exercise the zero-skip
	if !bitsEqual(MulTo(dirty(5, 6), a, b), a.MulSerial(b)) {
		t.Error("MulTo differs from MulSerial")
	}
	c := Random(5, 3, rng)
	if !bitsEqual(MulAtBTo(dirty(4, 3), a, c), a.T().MulSerial(c)) {
		t.Error("MulAtBTo differs from the explicit transpose product")
	}
	d := Random(7, 4, rng)
	if !bitsEqual(MulABtTo(dirty(5, 7), a, d), a.MulSerial(d.T())) {
		t.Error("MulABtTo differs from the explicit transpose product")
	}
	if !bitsEqual(TransposeTo(dirty(4, 5), a), a.T()) {
		t.Error("TransposeTo differs from T")
	}
}

func TestMulDivElemMatchesAllocatingUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, num, den := Random(6, 9, rng), Random(6, 9, rng), Random(6, 9, rng)
	den.Set(0, 0, 0) // the eps guard
	want := m.MulElem(num.DivElem(den, 1e-12))
	m.MulDivElem(num, den, 1e-12)
	if !bitsEqual(m, want) {
		t.Fatal("in-place update differs from MulElem(DivElem)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	m.MulDivElem(num, New(9, 6), 1e-12)
}

func TestDestinationKernelShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MulTo":       func() { MulTo(New(2, 3), New(2, 4), New(4, 2)) },
		"MulAtBTo":    func() { MulAtBTo(New(3, 3), New(2, 4), New(2, 3)) },
		"MulABtTo":    func() { MulABtTo(New(2, 2), New(2, 4), New(3, 4)) },
		"TransposeTo": func() { TransposeTo(New(2, 3), New(2, 3)) },
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
