package nnmf

// hostTiles returns the AVX routines of tiles_amd64.s, which give the
// Go routines' results bit for bit, when the CPU has AVX and the OS
// saves the YMM registers, and goTiles otherwise.
func hostTiles() tileOps {
	if !hasAVX() {
		return goTiles
	}
	return tileOps{name: "avx", updateH: updateHAVX, updateW: updateWAVX, addRow: addRowAVX}
}

// hasAVX reports CPUID.1:ECX's OSXSAVE (bit 27) and AVX (bit 28), and
// the SSE and AVX state bits (1 and 2) of XCR0, which say the OS saves
// the YMM registers. The routines use no AVX2 instruction.
func hasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(1<<27) == 0 || ecx&(1<<28) == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0; call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// The AVX twins of updateHDiag, updateW and addRow, with their
// signatures and results. They read their slices without bounds
// checks: the kernel's layout (nt tiles per row of W and Hᵀ, column
// indices below the column count) must hold.

//go:noescape
func updateHAVX(next, old, wtA, cw []tile, T int, eps float64, b *[16]float64)

//go:noescape
func updateWAVX(w, b *tile, cols []int, vals []float64, ht []tile, nt, T int, eps float64)

//go:noescape
func addRowAVX(dot float64, wi []tile, cols []int, vals []float64, ht, wtA []tile) float64
