#include "textflag.h"

// Each routine below is the AVX twin of a Go routine in sparse.go and
// gives its results bit for bit. A tile of four types is one YMM
// register, lane l holding type 4T+l: a vector operation applies the
// Go routine's scalar operation to the four types at once, and every
// sum over columns, non-zeros or tiles runs in the Go routine's order.
// Products and sums are separate VMULPD and VADDPD, never fused, as the
// Go compiler emits them on amd64. Only AVX instructions are used.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func updateHAVX(next, old, wtA, cw []tile, T int, eps float64, b *[16]float64)
//
// updateHDiag: per column j of nt tiles, D = Σ_U Σ_m cw[4U+m]·old[j+U][m]
// (lane l is d_l), next[j+T] = old[j+T] ⊙ (wtA[j+T] ⊘ (D + eps)), and
// row m of the diagonal block accumulates next[j+T][m]·next[j+T].
TEXT ·updateHAVX(SB), NOSPLIT, $0-120
	MOVQ next_base+0(FP), DI
	MOVQ old_base+24(FP), SI
	MOVQ old_len+32(FP), BX
	MOVQ wtA_base+48(FP), DX
	MOVQ cw_base+72(FP), R8
	MOVQ cw_len+80(FP), R9
	SHRQ $2, R9                   // nt
	MOVQ T+96(FP), R10
	SHLQ $5, R10                  // tile T's byte offset in a column
	VBROADCASTSD eps+104(FP), Y15
	VXORPD Y8, Y8, Y8             // rows 0-3 of the diagonal block
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ R13, R13                 // j, in tiles

hcol:
	LEAQ (R13)(R9*1), AX
	CMPQ AX, BX
	JGT  hdone
	MOVQ R13, R14
	SHLQ $5, R14                  // byte offset of column j
	LEAQ (SI)(R14*1), AX          // &old[j+U]
	MOVQ R8, CX                   // &cw[4U]
	MOVQ R9, R11
	VXORPD Y0, Y0, Y0             // D

htile:
	VBROADCASTSD 0(AX), Y1
	VMULPD       0(CX), Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 8(AX), Y2
	VMULPD       32(CX), Y2, Y2
	VADDPD       Y2, Y0, Y0
	VBROADCASTSD 16(AX), Y3
	VMULPD       64(CX), Y3, Y3
	VADDPD       Y3, Y0, Y0
	VBROADCASTSD 24(AX), Y4
	VMULPD       96(CX), Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $32, AX
	ADDQ         $128, CX
	DECQ         R11
	JNZ          htile

	ADDQ    R10, R14              // byte offset of tile T of column j
	VADDPD  Y15, Y0, Y0           // D + eps
	VMOVUPD (DX)(R14*1), Y5
	VDIVPD  Y0, Y5, Y5            // wtA / (D + eps)
	VMULPD  (SI)(R14*1), Y5, Y5   // old ⊙ that
	VMOVUPD Y5, (DI)(R14*1)

	VBROADCASTSD 0(DI)(R14*1), Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y6, Y8, Y8
	VBROADCASTSD 8(DI)(R14*1), Y7
	VMULPD       Y5, Y7, Y7
	VADDPD       Y7, Y9, Y9
	VBROADCASTSD 16(DI)(R14*1), Y12
	VMULPD       Y5, Y12, Y12
	VADDPD       Y12, Y10, Y10
	VBROADCASTSD 24(DI)(R14*1), Y13
	VMULPD       Y5, Y13, Y13
	VADDPD       Y13, Y11, Y11

	ADDQ R9, R13
	JMP  hcol

hdone:
	MOVQ    b+112(FP), AX
	VMOVUPD Y8, 0(AX)
	VMOVUPD Y9, 32(AX)
	VMOVUPD Y10, 64(AX)
	VMOVUPD Y11, 96(AX)
	VZEROUPPER
	RET

// func updateWAVX(w, b *tile, cols []int, vals []float64, ht []tile, nt, T int, eps float64)
//
// updateW: a = Σ_p vals[p]·ht[cols[p]·nt+T] over the row's non-zeros in
// order, then w = w ⊙ (a ⊘ (b + eps)).
TEXT ·updateWAVX(SB), NOSPLIT, $0-112
	MOVQ cols_base+16(FP), SI
	MOVQ cols_len+24(FP), CX
	MOVQ vals_base+40(FP), DX
	MOVQ ht_base+64(FP), DI
	MOVQ nt+88(FP), R8
	SHLQ $5, R8                   // a column's bytes
	MOVQ T+96(FP), R9
	SHLQ $5, R9
	ADDQ R9, DI                   // &ht[T]
	VXORPD Y0, Y0, Y0             // a
	TESTQ CX, CX
	JZ    wapply

wnz:
	MOVQ         (SI), AX
	IMULQ        R8, AX
	VBROADCASTSD (DX), Y1
	VMULPD       (DI)(AX*1), Y1, Y1
	VADDPD       Y1, Y0, Y0
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          wnz

wapply:
	MOVQ         b+8(FP), AX
	VBROADCASTSD eps+104(FP), Y2
	VADDPD       (AX), Y2, Y2     // b + eps
	VDIVPD       Y2, Y0, Y0       // a / (b + eps)
	MOVQ         w+0(FP), AX
	VMULPD       (AX), Y0, Y0     // w ⊙ that
	VMOVUPD      Y0, (AX)
	VZEROUPPER
	RET

// func addRowAVX(dot float64, wi []tile, cols []int, vals []float64, ht, wtA []tile) float64
//
// addRow: per non-zero (j, v) in order, d = 0 + w·h over the row's tiles
// as one chain, lane 0, 1, 2, then 3 of each product tile; wtA[j·nt+T]
// += v·wi[T]; dot += v·d.
TEXT ·addRowAVX(SB), NOSPLIT, $0-136
	VMOVSD dot+0(FP), X0
	MOVQ   wi_base+8(FP), SI
	MOVQ   wi_len+16(FP), R8      // nt
	MOVQ   cols_base+32(FP), BX
	MOVQ   cols_len+40(FP), CX
	MOVQ   vals_base+56(FP), DX
	MOVQ   ht_base+80(FP), DI
	MOVQ   wtA_base+104(FP), R9
	MOVQ   R8, R10
	SHLQ   $5, R10                // a column's bytes
	TESTQ  CX, CX
	JZ     adone

anz:
	MOVQ         (BX), AX
	IMULQ        R10, AX
	VMOVSD       (DX), X1         // v
	VBROADCASTSD (DX), Y2         // v in every lane
	VXORPD       X3, X3, X3       // d
	MOVQ         SI, R11          // &wi[T]
	LEAQ         (DI)(AX*1), R12  // &ht[j·nt+T]
	LEAQ         (R9)(AX*1), R13  // &wtA[j·nt+T]
	MOVQ         R8, R14

atile:
	VMOVUPD      (R11), Y4
	VMULPD       (R12), Y4, Y5    // w·h, one product per lane
	VADDSD       X5, X3, X3       // d += lane 0
	VUNPCKHPD    X5, X5, X6
	VADDSD       X6, X3, X3       // lane 1
	VEXTRACTF128 $1, Y5, X7
	VADDSD       X7, X3, X3       // lane 2
	VUNPCKHPD    X7, X7, X6
	VADDSD       X6, X3, X3       // lane 3
	VMULPD       Y4, Y2, Y4       // v·w
	VADDPD       (R13), Y4, Y4
	VMOVUPD      Y4, (R13)
	ADDQ         $32, R11
	ADDQ         $32, R12
	ADDQ         $32, R13
	DECQ         R14
	JNZ          atile

	VMULSD X3, X1, X1             // v·d
	VADDSD X1, X0, X0
	ADDQ   $8, BX
	ADDQ   $8, DX
	DECQ   CX
	JNZ    anz

adone:
	VMOVSD X0, ret+128(FP)
	VZEROUPPER
	RET
