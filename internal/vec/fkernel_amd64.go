//go:build amd64 && gc && !purego && !noasm

package vec

// float32SqDistsAVX2 is the AVX2 batch kernel behind SquaredDistsTo32:
// out[r] = SqL232(q, block[r*dim:(r+1)*dim]) for r in [0, rows). Each
// 8-component chunk subtracts, squares (VSUBPS/VMULPS — never FMA, which
// would skip the product rounding the portable loop performs), and adds into
// one ymm accumulator; the horizontal reduction and the left-to-right scalar
// tail reproduce the canonical float32 accumulation order exactly (see
// kernel32.go), so results are bit-identical to the portable loop.
// Implemented in fkernel_amd64.s.
//
//go:noescape
func float32SqDistsAVX2(q *float32, dim int, block *float32, out *float32, rows int)

func init() {
	if hasAVX2() {
		float32BatchKernel = float32SqDistsAVX2
	}
}
