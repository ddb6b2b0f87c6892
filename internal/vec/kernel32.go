package vec

import "fmt"

// This file holds the float32 distance kernels behind the selectable-
// precision scan path (store.Float32 precision). Unlike the float64 kernels,
// whose accumulation order is pinned to the scalar left-to-right reference so
// results stay bit-identical to the historical per-vector loops, the float32
// kernels define their OWN canonical accumulation order: eight independent
// lane accumulators (component i feeds lane i%8 over the 8-aligned prefix), a
// fixed horizontal reduction
//
//	((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))
//
// and a left-to-right scalar tail — exactly the dataflow of one AVX2 ymm
// accumulator followed by the VEXTRACTF128/VPSHUFD reduction in
// fkernel_amd64.s. The portable loops below reproduce that order term for
// term, so the accelerated and portable paths are bit-identical and float32
// results are one deterministic mode across platforms and build tags.
//
// Every product and sum is written through an explicit float32 conversion or
// a separately-rounded named intermediate: the Go spec only licenses fused
// multiply-add when an expression is not explicitly rounded, so these loops
// can never be FMA-fused (on arm64 the gc compiler otherwise would), which
// would break cross-platform bit-equality.

// float32BatchKernel, when non-nil, is a platform-accelerated implementation
// of the SquaredDistsTo32 inner loop (amd64: AVX2, installed by init when the
// CPU supports it and the build is not tagged noasm). The accelerated kernel
// follows the canonical accumulation order above, so every implementation
// returns bit-identical results; the hook trades nothing but time.
var float32BatchKernel func(q *float32, dim int, block *float32, out *float32, rows int)

// HasAcceleratedFloat32Batch reports whether a platform-accelerated kernel
// backs SquaredDistsTo32 on this CPU.
func HasAcceleratedFloat32Batch() bool { return float32BatchKernel != nil }

// SqL232 returns the squared Euclidean distance between two float32 vectors
// in the canonical float32 accumulation order (see the file comment) — the
// value SquaredDistsTo32 produces for the same row. It panics on a length
// mismatch.
func SqL232(q, v []float32) float32 {
	if len(q) != len(v) {
		panic(fmt.Sprintf("vec: dims %d != %d", len(q), len(v)))
	}
	return sqDist32Row(q, v)
}

// sqDist32Row scores one row in the canonical lane order. Callers guarantee
// len(row) == len(q).
func sqDist32Row(q, row []float32) float32 {
	var l0, l1, l2, l3, l4, l5, l6, l7 float32
	i := 0
	for ; i+8 <= len(q); i += 8 {
		d0 := q[i] - row[i]
		d1 := q[i+1] - row[i+1]
		d2 := q[i+2] - row[i+2]
		d3 := q[i+3] - row[i+3]
		d4 := q[i+4] - row[i+4]
		d5 := q[i+5] - row[i+5]
		d6 := q[i+6] - row[i+6]
		d7 := q[i+7] - row[i+7]
		l0 += float32(d0 * d0)
		l1 += float32(d1 * d1)
		l2 += float32(d2 * d2)
		l3 += float32(d3 * d3)
		l4 += float32(d4 * d4)
		l5 += float32(d5 * d5)
		l6 += float32(d6 * d6)
		l7 += float32(d7 * d7)
	}
	s := reduce32(l0, l1, l2, l3, l4, l5, l6, l7)
	for ; i < len(q); i++ {
		d := q[i] - row[i]
		s += float32(d * d)
	}
	return s
}

// reduce32 folds the eight lane accumulators in the fixed AVX2 shuffle order:
// lower+upper xmm halves, then 64-bit pair swap, then 32-bit pair swap.
func reduce32(l0, l1, l2, l3, l4, l5, l6, l7 float32) float32 {
	s04 := l0 + l4
	s15 := l1 + l5
	s26 := l2 + l6
	s37 := l3 + l7
	a := s04 + s26
	b := s15 + s37
	return a + b
}

// SquaredDistsTo32 computes out[r] = SqL232(q, row_r) for every dimension-
// strided row of block, where block holds len(out) rows of len(q) contiguous
// components. It panics if len(block) != len(out)*len(q). All implementations
// (portable and accelerated) are bit-identical.
func SquaredDistsTo32(q []float32, block []float32, out []float32) {
	dim := len(q)
	if len(block) != len(out)*dim {
		panic(fmt.Sprintf("vec: block %d != %d rows x %d dims", len(block), len(out), dim))
	}
	if dim == 0 {
		for r := range out {
			out[r] = 0
		}
		return
	}
	if float32BatchKernel != nil && dim >= 8 && len(out) > 0 {
		float32BatchKernel(&q[0], dim, &block[0], &out[0], len(out))
		return
	}
	float32SquaredDistsToGeneric(q, block, out)
}

// float32SquaredDistsToGeneric is the portable batch kernel (and the
// reference the accelerated implementations are tested against).
func float32SquaredDistsToGeneric(q []float32, block []float32, out []float32) {
	dim := len(q)
	for r := range out {
		out[r] = sqDist32Row(q, block[r*dim:r*dim+dim:r*dim+dim])
	}
}

// Narrow32 converts a float64 backing array to float32, rounding each
// component once (round-to-nearest-even). It is the single conversion point
// of the float32 data plane: a corpus narrows once at build/enable time and a
// query narrows once per search, so the hot loops never convert per-row.
func Narrow32(src []float64, dst []float32) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// Widen64 converts a float32 backing array to float64 (exact — every float32
// is representable as a float64).
func Widen64(src []float32, dst []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
	return dst
}
