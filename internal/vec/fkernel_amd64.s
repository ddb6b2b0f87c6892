//go:build amd64 && gc && !purego && !noasm

#include "textflag.h"

// func float32SqDistsAVX2(q *float32, dim int, block *float32, out *float32, rows int)
//
// out[r] = Σ_i (q[i]−block[r*dim+i])² in float32, accumulated in the
// canonical lane order (see kernel32.go): component i of the 8-aligned
// prefix feeds ymm lane i%8, the lanes reduce lower+upper halves then
// 64-bit-pair then 32-bit-pair swaps, and the ≤7-component tail adds
// left-to-right in scalar. VSUBPS/VMULPS/VADDPS only — no FMA — so every
// intermediate rounds exactly like the portable Go loop and the two paths
// are bit-identical. Loads never cross a row boundary, so nothing is read
// past the block.
TEXT ·float32SqDistsAVX2(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ dim+8(FP), DX
	MOVQ block+16(FP), DI
	MOVQ out+24(FP), R8
	MOVQ rows+32(FP), R9

	MOVQ DX, R10
	ANDQ $-8, R10             // R10 = dim &^ 7: the SIMD-covered prefix

rowloop:
	TESTQ  R9, R9
	JLE    done
	VXORPS Y0, Y0, Y0         // float32x8 lane accumulator
	XORQ   R11, R11           // i = 0
	CMPQ   R10, $0
	JE     hsum

simd:
	VMOVUPS (SI)(R11*4), Y1   // 8 query components
	VMOVUPS (DI)(R11*4), Y2   // 8 row components
	VSUBPS  Y2, Y1, Y1        // d = q - row
	VMULPS  Y1, Y1, Y1        // d*d (rounded product, as in the Go loop)
	VADDPS  Y1, Y0, Y0
	ADDQ    $8, R11
	CMPQ    R11, R10
	JL      simd

hsum:
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0   // lanes (0+4, 1+5, 2+6, 3+7)
	VPSHUFD      $0x4E, X0, X1
	VADDPS       X1, X0, X0   // lane0 = (0+4)+(2+6), lane1 = (1+5)+(3+7)
	VPSHUFD      $0xB1, X0, X1
	VADDPS       X1, X0, X0   // lane0 = full reduction

scalar:
	CMPQ   R11, DX
	JGE    store
	VMOVSS (SI)(R11*4), X1
	VSUBSS (DI)(R11*4), X1, X1
	VMULSS X1, X1, X1
	VADDSS X1, X0, X0
	INCQ   R11
	JMP    scalar

store:
	VMOVSS X0, (R8)
	ADDQ   $4, R8
	LEAQ   (DI)(DX*4), DI     // next row
	DECQ   R9
	JMP    rowloop

done:
	VZEROUPPER
	RET
