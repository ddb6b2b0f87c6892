package vec

import "fmt"

// This file holds the SQ8 (scalar-quantized, 8-bit) distance kernels behind
// the compressed scan path. Codes are uint8 per component; distances between
// code vectors accumulate in int32 — exact integer arithmetic, so unlike the
// float kernels these may reassociate freely (multiple accumulators) without
// breaking any determinism guarantee. The caller decodes a code distance to
// the metric scale by multiplying with its quantizer's delta² (see
// store.Quantized); the kernels themselves never touch floating point.
//
// Overflow bound: one squared component difference is at most 255² = 65025,
// so a full accumulation fits int32 for any dim ≤ 33025. The quantizer
// construction enforces that bound (store.QuantizeBacking), so the kernels
// only debug-check lengths.

// uint8BatchKernel, when non-nil, is a platform-accelerated implementation
// of the Uint8SquaredDistsTo inner loop (amd64: AVX2, installed by init when
// the CPU supports it). Integer arithmetic is exact, so every implementation
// returns bit-identical results; the hook trades nothing but time.
var uint8BatchKernel func(q *uint8, dim int, block *uint8, out *int32, rows int)

// HasAcceleratedUint8Batch reports whether a platform-accelerated kernel
// backs Uint8SquaredDistsTo on this CPU.
func HasAcceleratedUint8Batch() bool { return uint8BatchKernel != nil }

// HasAcceleratedUint8Multi always reports false: there is no multi-query
// kernel. It stays only for the benchmark header (bench/qdload/header.go),
// which records it.
func HasAcceleratedUint8Multi() bool { return false }

// Uint8SquaredDistsTo computes out[r] = Σ_i (q[i]−row_r[i])² in int32 for
// every dimension-strided row of block, where block holds len(out) rows of
// len(q) contiguous codes. It panics if len(block) != len(out)*len(q).
//
// The loop runs four independent accumulators; integer addition is
// associative, so the result is exactly the naive left-to-right sum.
func Uint8SquaredDistsTo(q []uint8, block []uint8, out []int32) {
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
	if uint8BatchKernel != nil && dim >= 16 && len(out) > 0 {
		uint8BatchKernel(&q[0], dim, &block[0], &out[0], len(out))
		return
	}
	uint8SquaredDistsToGeneric(q, block, out)
}

// uint8SquaredDistsToGeneric is the portable batch kernel (and the reference
// the accelerated implementations are tested against).
func uint8SquaredDistsToGeneric(q []uint8, block []uint8, out []int32) {
	dim := len(q)
	for r := range out {
		row := block[r*dim : r*dim+dim : r*dim+dim]
		var s0, s1, s2, s3 int32
		i := 0
		for ; i+4 <= dim; i += 4 {
			d0 := int32(q[i]) - int32(row[i])
			d1 := int32(q[i+1]) - int32(row[i+1])
			d2 := int32(q[i+2]) - int32(row[i+2])
			d3 := int32(q[i+3]) - int32(row[i+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; i < dim; i++ {
			d := int32(q[i]) - int32(row[i])
			s0 += d * d
		}
		out[r] = s0 + s1 + s2 + s3
	}
}

// Uint8SquaredDist returns Σ_i (q[i]−v[i])² in int32. It panics on a length
// mismatch.
func Uint8SquaredDist(q, v []uint8) int32 {
	if len(q) != len(v) {
		panic(fmt.Sprintf("vec: code dims %d != %d", len(q), len(v)))
	}
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(q); i += 4 {
		d0 := int32(q[i]) - int32(v[i])
		d1 := int32(q[i+1]) - int32(v[i+1])
		d2 := int32(q[i+2]) - int32(v[i+2])
		d3 := int32(q[i+3]) - int32(v[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(q); i++ {
		d := int32(q[i]) - int32(v[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}
