package matrix

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum number of multiply-accumulate
// operations before Mul fans out across goroutines. Below this, the
// goroutine scheduling overhead dominates any speedup.
const parallelThreshold = 64 * 64 * 64

// Mul returns the matrix product m × n, parallelizing across rows when
// the problem is large enough to amortize goroutine startup.
func (m *Dense) Mul(n *Dense) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d × %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	if m.rows*m.cols*n.cols >= parallelThreshold {
		return m.mulParallel(n, runtime.GOMAXPROCS(0))
	}
	return MulTo(New(m.rows, n.cols), m, n)
}

// MulSerial returns m × n computed on the calling goroutine only. It is
// exported so the benchmark harness can measure the parallel speedup.
func (m *Dense) MulSerial(n *Dense) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("matrix: MulSerial shape mismatch %dx%d × %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	return MulTo(New(m.rows, n.cols), m, n)
}

// MulParallel returns m × n using exactly workers goroutines (or
// GOMAXPROCS when workers <= 0). Exported for the ablation benchmarks.
func (m *Dense) MulParallel(n *Dense, workers int) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("matrix: MulParallel shape mismatch %dx%d × %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return m.mulParallel(n, workers)
}

// MulTo writes m × n into dst, which must be m.Rows() × n.Cols(), and
// returns dst. It is Mul on the calling goroutine with no allocation:
// the same loop order and zero-skip, so the result is bit-identical.
func MulTo(dst, m, n *Dense) *Dense {
	if m.cols != n.rows || dst.rows != m.rows || dst.cols != n.cols {
		panic(fmt.Sprintf("matrix: MulTo shape mismatch %dx%d × %dx%d into %dx%d",
			m.rows, m.cols, n.rows, n.cols, dst.rows, dst.cols))
	}
	clear(dst.data)
	m.mulRows(n, dst, 0, m.rows)
	return dst
}

func (m *Dense) mulParallel(n *Dense, workers int) *Dense {
	out := New(m.rows, n.cols)
	if workers > m.rows {
		workers = m.rows
	}
	var wg sync.WaitGroup
	chunk := (m.rows + workers - 1) / workers
	for lo := 0; lo < m.rows; lo += chunk {
		hi := lo + chunk
		if hi > m.rows {
			hi = m.rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.mulRows(n, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// mulRows accumulates rows [lo, hi) of m × n into out. Each goroutine
// writes a disjoint row range, so no synchronization beyond the
// WaitGroup is needed. The i-k-j loop order streams the inner loop
// through contiguous rows of both out and n, which is cache-friendly for
// row-major storage.
func (m *Dense) mulRows(n, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			nk := n.data[k*n.cols : (k+1)*n.cols]
			for j, nkj := range nk {
				oi[j] += mik * nkj
			}
		}
	}
}

// MulAtB returns mᵀ × n without materializing the transpose.
func (m *Dense) MulAtB(n *Dense) *Dense {
	return MulAtBTo(New(m.cols, n.cols), m, n)
}

// MulAtBTo writes mᵀ × n into dst, which must be m.Cols() × n.Cols(),
// and returns dst.
func MulAtBTo(dst, m, n *Dense) *Dense {
	if m.rows != n.rows || dst.rows != m.cols || dst.cols != n.cols {
		panic(fmt.Sprintf("matrix: MulAtB shape mismatch %dx%d vs %dx%d into %dx%d",
			m.rows, m.cols, n.rows, n.cols, dst.rows, dst.cols))
	}
	clear(dst.data)
	for k := 0; k < m.rows; k++ {
		mk := m.data[k*m.cols : (k+1)*m.cols]
		nk := n.data[k*n.cols : (k+1)*n.cols]
		for i, mki := range mk {
			if mki == 0 {
				continue
			}
			oi := dst.data[i*dst.cols : (i+1)*dst.cols]
			for j, nkj := range nk {
				oi[j] += mki * nkj
			}
		}
	}
	return dst
}

// MulABt returns m × nᵀ without materializing the transpose.
func (m *Dense) MulABt(n *Dense) *Dense {
	return MulABtTo(New(m.rows, n.rows), m, n)
}

// MulABtTo writes m × nᵀ into dst, which must be m.Rows() × n.Rows(),
// and returns dst.
func MulABtTo(dst, m, n *Dense) *Dense {
	if m.cols != n.cols || dst.rows != m.rows || dst.cols != n.rows {
		panic(fmt.Sprintf("matrix: MulABt shape mismatch %dx%d vs %dx%d into %dx%d",
			m.rows, m.cols, n.rows, n.cols, dst.rows, dst.cols))
	}
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := 0; j < n.rows; j++ {
			nj := n.data[j*n.cols : (j+1)*n.cols]
			s := 0.0
			for k, v := range mi {
				s += v * nj[k]
			}
			oi[j] = s
		}
	}
	return dst
}
