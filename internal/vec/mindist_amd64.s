//go:build amd64 && gc && !purego && !noasm

#include "textflag.h"

// func minDistSqChildrenAVX2(q, w *float64, dim int, box *float64, n int, out *float64)
//
// Requires n >= 4 and dim >= 1. The box is dimension-major: dimension d's n
// Min values start at box + 2nd·8 and its n Max values n·8 bytes later. Lane
// c of an accumulator is child c's running sum; per dimension it adds
//
//	g = below > 0 ? below : (above > 0 ? above : +0)   (below = min−q, above = q−max)
//
// squared (or (w·g)·g) exactly as clampGap and MinDistSq do: GT_OQ is false
// for ±0 and NaN, as clampGap's bit-range test is. Sixteen children go per
// pass, then four, and a last 1–3 are covered by re-running the final four,
// whose lanes come out with the same bits they already had.

// GAP leaves in B the clamped gaps of the four children at off(R12), with the
// query coordinate broadcast in Y15 and zero in Y13; A and M are scratch.
#define GAP(off, B, A, M) \
	VMOVUPD   off(R12), B; \
	VSUBPD    Y15, B, B; \
	VSUBPD    off(R12)(R10*1), Y15, A; \
	VCMPPD    $0x1e, Y13, A, M; \
	VANDPD    M, A, A; \
	VCMPPD    $0x1e, Y13, B, M; \
	VBLENDVPD M, B, A, B

// SQ and WSQ add g² and (w·g)·g (w broadcast in Y14) to ACC.
#define SQ(B, ACC) \
	VMULPD B, B, B; \
	VADDPD B, ACC, ACC

#define WSQ(B, M, ACC) \
	VMULPD B, Y14, M; \
	VMULPD B, M, B; \
	VADDPD B, ACC, ACC

TEXT ·minDistSqChildrenAVX2(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), SI
	MOVQ w+8(FP), BX
	MOVQ dim+16(FP), DX
	MOVQ box+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ out+40(FP), R8

	MOVQ   CX, R10
	SHLQ   $3, R10            // R10 = n·8: a dimension's Min row to its Max row
	LEAQ   (R10)(R10*1), R9   // R9 = 2n·8: one dimension to the next
	VXORPD Y13, Y13, Y13
	XORQ   R11, R11           // c: the first child of the current pass

pass16:
	LEAQ   16(R11), AX
	CMPQ   AX, CX
	JGT    pass4
	LEAQ   (DI)(R11*8), R12   // dimension 0's Min of child c
	XORQ   R13, R13           // d
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  BX, BX
	JNZ    w16

u16:
	VBROADCASTSD (SI)(R13*8), Y15
	GAP(0, Y4, Y5, Y6)
	GAP(32, Y7, Y8, Y9)
	SQ(Y4, Y0)
	GAP(64, Y10, Y11, Y12)
	SQ(Y7, Y1)
	GAP(96, Y4, Y5, Y6)
	SQ(Y10, Y2)
	SQ(Y4, Y3)
	ADDQ         R9, R12
	INCQ         R13
	CMPQ         R13, DX
	JLT          u16
	JMP          store16

w16:
	VBROADCASTSD (SI)(R13*8), Y15
	VBROADCASTSD (BX)(R13*8), Y14
	GAP(0, Y4, Y5, Y6)
	GAP(32, Y7, Y8, Y9)
	WSQ(Y4, Y5, Y0)
	GAP(64, Y10, Y11, Y12)
	WSQ(Y7, Y8, Y1)
	GAP(96, Y4, Y5, Y6)
	WSQ(Y10, Y11, Y2)
	WSQ(Y4, Y5, Y3)
	ADDQ         R9, R12
	INCQ         R13
	CMPQ         R13, DX
	JLT          w16

store16:
	VMOVUPD Y0, (R8)(R11*8)
	VMOVUPD Y1, 32(R8)(R11*8)
	VMOVUPD Y2, 64(R8)(R11*8)
	VMOVUPD Y3, 96(R8)(R11*8)
	MOVQ    AX, R11
	JMP     pass16

pass4:
	LEAQ 4(R11), AX
	CMPQ AX, CX
	JLE  run4
	CMPQ R11, CX
	JGE  done
	MOVQ CX, R11              // 1–3 children left: redo the last four
	SUBQ $4, R11
	MOVQ CX, AX

run4:
	LEAQ   (DI)(R11*8), R12
	XORQ   R13, R13
	VXORPD Y0, Y0, Y0
	TESTQ  BX, BX
	JNZ    w4

u4:
	VBROADCASTSD (SI)(R13*8), Y15
	GAP(0, Y4, Y5, Y6)
	SQ(Y4, Y0)
	ADDQ         R9, R12
	INCQ         R13
	CMPQ         R13, DX
	JLT          u4
	JMP          store4

w4:
	VBROADCASTSD (SI)(R13*8), Y15
	VBROADCASTSD (BX)(R13*8), Y14
	GAP(0, Y4, Y5, Y6)
	WSQ(Y4, Y5, Y0)
	ADDQ         R9, R12
	INCQ         R13
	CMPQ         R13, DX
	JLT          w4

store4:
	VMOVUPD Y0, (R8)(R11*8)
	MOVQ    AX, R11
	JMP     pass4

done:
	VZEROUPPER
	RET
