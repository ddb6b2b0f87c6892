//go:build amd64 && gc && !purego && !noasm

#include "textflag.h"

// func hasAVX2() bool
//
// Standard AVX2 detection: CPUID leaf 1 must report OSXSAVE and AVX, XGETBV
// must show the OS saves XMM+YMM state, and CPUID leaf 7 must report AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX // OSXSAVE | AVX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX               // XCR0: XMM and YMM state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX               // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// tailmask is 16 zero int16 lanes then 16 all-ones ones: the 16 lanes read
// from byte offset 2r keep the last r, for r in [1, 15].
DATA tailmask<>+0(SB)/8, $0
DATA tailmask<>+8(SB)/8, $0
DATA tailmask<>+16(SB)/8, $0
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+40(SB)/8, $-1
DATA tailmask<>+48(SB)/8, $-1
DATA tailmask<>+56(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// func uint8SqDistsAVX2(q *uint8, dim int, block *uint8, out *int32, rows int)
//
// out[r] = Σ_i (q[i]−block[r*dim+i])², all int32, for dim ≥ 16. Per 16-code
// chunk: widen uint8→int16 (VPMOVZXBW), subtract (fits int16: |d| ≤ 255),
// square and pair-sum into int32 lanes (VPMADDWD: ≤ 2·255² per lane, no
// overflow), accumulate. A row whose dim is not a multiple of 16 ends with one
// more chunk, the row's last 16 codes, whose differences are masked (VPAND) to
// the dim mod 16 lanes the prefix has not counted: every term is added once,
// and integer sums make the total the scalar loop's. Loads never cross a row
// boundary, so nothing is read past the block.
TEXT ·uint8SqDistsAVX2(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ dim+8(FP), DX
	MOVQ block+16(FP), DI
	MOVQ out+24(FP), R8
	MOVQ rows+32(FP), R9

	MOVQ DX, R10
	ANDQ $-16, R10            // R10 = dim &^ 15: the chunked prefix
	MOVQ DX, CX
	ANDQ $15, CX              // CX = dim & 15: codes past the prefix
	JZ   rowloop
	LEAQ tailmask<>(SB), AX
	VMOVDQU   (AX)(CX*2), Y7  // int16 lanes [16-CX, 16) set
	LEAQ      -16(DX), BX     // BX = dim-16: the last chunk's offset
	VPMOVZXBW (SI)(BX*1), Y6  // the query's last 16 codes → int16 lanes

rowloop:
	TESTQ R9, R9
	JLE   done
	VPXOR Y0, Y0, Y0          // int32x8 accumulator
	XORQ  R11, R11            // i = 0

simd:
	VPMOVZXBW (SI)(R11*1), Y1 // 16 query codes → int16 lanes
	VPMOVZXBW (DI)(R11*1), Y2 // 16 row codes → int16 lanes
	VPSUBW    Y2, Y1, Y1
	VPMADDWD  Y1, Y1, Y1      // pairwise d·d sums → int32 lanes
	VPADDD    Y1, Y0, Y0
	ADDQ      $16, R11
	CMPQ      R11, R10
	JL        simd

	TESTQ     CX, CX
	JZ        hsum
	VPMOVZXBW (DI)(BX*1), Y2  // the row's last 16 codes
	VPSUBW    Y2, Y6, Y1
	VPAND     Y7, Y1, Y1      // zero the lanes the prefix counted
	VPMADDWD  Y1, Y1, Y1
	VPADDD    Y1, Y0, Y0

hsum:
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, (R8)
	ADDQ         $4, R8
	ADDQ         DX, DI       // next row
	DECQ         R9
	JMP          rowloop

done:
	VZEROUPPER
	RET

// func uint8SqDistsMulti4AVX2(qs *uint8, dim int, block *uint8, out *int32, ostride int, rows int)
//
// Scores FOUR query code rows (packed contiguously in qs) against every row
// of block, widening each 16-code row chunk ONCE and reusing it for all four
// queries: out[j*ostride+r] = Σ_i (q_j[i]−row_r[i])². Same arithmetic as
// uint8SqDistsAVX2 per query (VPSUBW/VPMADDWD/VPADDD, scalar row tail) — all
// exact int32, so results are identical to four single-query calls. Tail
// terms accumulate into lane 0 of each query's xmm sum (VMOVD + VPADDD) to
// keep the general-purpose registers free for the four query cursors.
TEXT ·uint8SqDistsMulti4AVX2(SB), NOSPLIT, $0-48
	MOVQ qs+0(FP), SI
	MOVQ dim+8(FP), DX
	MOVQ block+16(FP), DI
	MOVQ out+24(FP), R8
	MOVQ rows+40(FP), R9

	LEAQ (SI)(DX*1), R12      // q1
	LEAQ (R12)(DX*1), R13     // q2
	LEAQ (R13)(DX*1), R14     // q3
	MOVQ DX, R10
	ANDQ $-16, R10            // R10 = dim &^ 15: the SIMD-covered prefix

mrowloop:
	TESTQ R9, R9
	JLE   mdone
	VPXOR Y0, Y0, Y0          // q0 int32 accumulator
	VPXOR Y1, Y1, Y1          // q1
	VPXOR Y2, Y2, Y2          // q2
	VPXOR Y3, Y3, Y3          // q3
	XORQ  R11, R11            // i = 0
	CMPQ  R10, $0
	JE    mhsum

msimd:
	VPMOVZXBW (DI)(R11*1), Y4 // 16 row codes → int16 lanes, once for all queries
	VPMOVZXBW (SI)(R11*1), Y5
	VPSUBW    Y4, Y5, Y5      // d = q0 - row
	VPMADDWD  Y5, Y5, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVZXBW (R12)(R11*1), Y5
	VPSUBW    Y4, Y5, Y5
	VPMADDWD  Y5, Y5, Y5
	VPADDD    Y5, Y1, Y1
	VPMOVZXBW (R13)(R11*1), Y5
	VPSUBW    Y4, Y5, Y5
	VPMADDWD  Y5, Y5, Y5
	VPADDD    Y5, Y2, Y2
	VPMOVZXBW (R14)(R11*1), Y5
	VPSUBW    Y4, Y5, Y5
	VPMADDWD  Y5, Y5, Y5
	VPADDD    Y5, Y3, Y3
	ADDQ      $16, R11
	CMPQ      R11, R10
	JL        msimd

mhsum:
	VEXTRACTI128 $1, Y0, X5
	VPADDD       X5, X0, X0
	VPSHUFD      $0x4E, X0, X5
	VPADDD       X5, X0, X0
	VPSHUFD      $0xB1, X0, X5
	VPADDD       X5, X0, X0   // X0 lane0 = q0 prefix sum
	VEXTRACTI128 $1, Y1, X5
	VPADDD       X5, X1, X1
	VPSHUFD      $0x4E, X1, X5
	VPADDD       X5, X1, X1
	VPSHUFD      $0xB1, X1, X5
	VPADDD       X5, X1, X1
	VEXTRACTI128 $1, Y2, X5
	VPADDD       X5, X2, X2
	VPSHUFD      $0x4E, X2, X5
	VPADDD       X5, X2, X2
	VPSHUFD      $0xB1, X2, X5
	VPADDD       X5, X2, X2
	VEXTRACTI128 $1, Y3, X5
	VPADDD       X5, X3, X3
	VPSHUFD      $0x4E, X3, X5
	VPADDD       X5, X3, X3
	VPSHUFD      $0xB1, X3, X5
	VPADDD       X5, X3, X3

	CMPQ R11, DX
	JGE  mstore
	MOVQ R11, CX              // ≤15-code tails, one query at a time

mtail0:
	CMPQ    CX, DX
	JGE     mtail1i
	MOVBLZX (SI)(CX*1), AX
	MOVBLZX (DI)(CX*1), BX
	SUBL    BX, AX
	IMULL   AX, AX
	VMOVD   AX, X5
	VPADDD  X5, X0, X0
	INCQ    CX
	JMP     mtail0

mtail1i:
	MOVQ R11, CX

mtail1:
	CMPQ    CX, DX
	JGE     mtail2i
	MOVBLZX (R12)(CX*1), AX
	MOVBLZX (DI)(CX*1), BX
	SUBL    BX, AX
	IMULL   AX, AX
	VMOVD   AX, X5
	VPADDD  X5, X1, X1
	INCQ    CX
	JMP     mtail1

mtail2i:
	MOVQ R11, CX

mtail2:
	CMPQ    CX, DX
	JGE     mtail3i
	MOVBLZX (R13)(CX*1), AX
	MOVBLZX (DI)(CX*1), BX
	SUBL    BX, AX
	IMULL   AX, AX
	VMOVD   AX, X5
	VPADDD  X5, X2, X2
	INCQ    CX
	JMP     mtail2

mtail3i:
	MOVQ R11, CX

mtail3:
	CMPQ    CX, DX
	JGE     mstore
	MOVBLZX (R14)(CX*1), AX
	MOVBLZX (DI)(CX*1), BX
	SUBL    BX, AX
	IMULL   AX, AX
	VMOVD   AX, X5
	VPADDD  X5, X3, X3
	INCQ    CX
	JMP     mtail3

mstore:
	MOVQ  ostride+32(FP), AX
	SHLQ  $2, AX              // AX = ostride in bytes
	VMOVD X0, (R8)
	VMOVD X1, (R8)(AX*1)
	VMOVD X2, (R8)(AX*2)
	LEAQ  (R8)(AX*2), BX      // 3*stride is not an x86 scale; hop via 2*stride
	VMOVD X3, (BX)(AX*1)
	ADDQ  $4, R8
	ADDQ  DX, DI              // next row
	DECQ  R9
	JMP   mrowloop

mdone:
	VZEROUPPER
	RET
