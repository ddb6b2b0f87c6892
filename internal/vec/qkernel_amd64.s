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
