package vec

import "fmt"

// This file holds the multi-query (M×N) batch kernels: M query rows scored
// against the same N-row block in one pass, so every block row is loaded once
// and amortized across all M queries instead of M times across M single-query
// sweeps. The bit-exactness contract is inherited wholesale from the 1×N
// kernels: per-query accumulators never mix, and each query's terms are
// consumed in exactly the single-query order (f64 scalar left-to-right, f32
// canonical lane order, SQ8 exact integer), so the output block is
// bit-identical to M independent SquaredDistsTo / SquaredDistsTo32 /
// Uint8SquaredDistsTo calls. The multi layout trades nothing but time.
//
// Layout: qs packs the M queries contiguously (query j occupies
// qs[j*dim:(j+1)*dim]); out is query-major (out[j*rows+r] is query j against
// row r), so each query's distance vector is itself a contiguous slice ready
// for a per-query TopK selection.

// multiWidth is the number of queries one accelerated multi-kernel dispatch
// covers. The AVX2 kernels pin four per-query ymm accumulators and share each
// block-row load across them; callers with M > multiWidth dispatch in groups
// and finish the remainder through the single-query kernel.
const multiWidth = 4

// float32MultiKernel, when non-nil, is a platform-accelerated kernel scoring
// exactly multiWidth contiguous query rows against every row of a block with
// one load of each row chunk (amd64: AVX2, installed by init alongside
// float32BatchKernel). out is query-major with stride ostride:
// out[j*ostride+r]. Every implementation follows the canonical per-query
// accumulation order, so results are bit-identical to the single-query path.
var float32MultiKernel func(qs *float32, dim int, block *float32, out *float32, ostride int, rows int)

// uint8MultiKernel is float32MultiKernel's SQ8 counterpart: multiWidth query
// code rows against a code block, int32 out with stride ostride. Integer
// arithmetic is exact, so every implementation is bit-identical.
var uint8MultiKernel func(qs *uint8, dim int, block *uint8, out *int32, ostride int, rows int)

// HasAcceleratedFloat32Multi reports whether a platform-accelerated
// multi-query kernel backs SquaredDistsToMulti32 on this CPU.
func HasAcceleratedFloat32Multi() bool { return float32MultiKernel != nil }

// HasAcceleratedUint8Multi reports whether a platform-accelerated multi-query
// kernel backs Uint8SquaredDistsToMulti on this CPU.
func HasAcceleratedUint8Multi() bool { return uint8MultiKernel != nil }

// multiDims validates the packed multi-query layout and returns (dim, rows).
// m == 0 is allowed only for empty qs/out (nothing to score).
func multiDims(qsLen, m, blockLen, outLen int) (dim, rows int) {
	if m < 0 {
		panic(fmt.Sprintf("vec: negative query count %d", m))
	}
	if m == 0 {
		if qsLen != 0 || outLen != 0 {
			panic(fmt.Sprintf("vec: qs %d / out %d with zero queries", qsLen, outLen))
		}
		return 0, 0
	}
	if qsLen%m != 0 {
		panic(fmt.Sprintf("vec: qs %d not %d equal query rows", qsLen, m))
	}
	dim = qsLen / m
	if outLen%m != 0 {
		panic(fmt.Sprintf("vec: out %d not %d equal result rows", outLen, m))
	}
	rows = outLen / m
	if blockLen != rows*dim {
		panic(fmt.Sprintf("vec: block %d != %d rows x %d dims", blockLen, rows, dim))
	}
	return dim, rows
}

// SquaredDistsToMulti computes out[j*rows+r] = SqL2(query_j, row_r) for each
// of the m query rows packed in qs against every dimension-strided row of
// block, with rows = len(out)/m. Each query's accumulation order is exactly
// SquaredDistsTo's scalar left-to-right order, so out is bit-identical to m
// independent SquaredDistsTo calls; the rows-outer loop keeps each block row
// cache-hot across all m queries.
func SquaredDistsToMulti(qs []float64, m int, block []float64, out []float64) {
	dim, rows := multiDims(len(qs), m, len(block), len(out))
	if dim == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	for r := 0; r < rows; r++ {
		row := block[r*dim : r*dim+dim : r*dim+dim]
		for j := 0; j < m; j++ {
			q := qs[j*dim : j*dim+dim : j*dim+dim]
			var s float64
			for i, ri := range row {
				d := q[i] - ri
				s += float64(d * d)
			}
			out[j*rows+r] = s
		}
	}
}

// SquaredDistsToMulti32 is SquaredDistsToMulti over float32 in the canonical
// float32 accumulation order: out[j*rows+r] = SqL232(query_j, row_r),
// bit-identical to m independent SquaredDistsTo32 calls on every
// implementation (portable and accelerated).
func SquaredDistsToMulti32(qs []float32, m int, block []float32, out []float32) {
	dim, rows := multiDims(len(qs), m, len(block), len(out))
	if dim == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	if rows == 0 {
		return
	}
	if float32MultiKernel != nil && float32BatchKernel != nil && dim >= 8 {
		j := 0
		for ; j+multiWidth <= m; j += multiWidth {
			float32MultiKernel(&qs[j*dim], dim, &block[0], &out[j*rows], rows, rows)
		}
		for ; j < m; j++ {
			float32BatchKernel(&qs[j*dim], dim, &block[0], &out[j*rows], rows)
		}
		return
	}
	float32SquaredDistsToMultiGeneric(qs, m, dim, rows, block, out)
}

// float32SquaredDistsToMultiGeneric is the portable multi-query kernel (and
// the reference the accelerated implementations are tested against).
func float32SquaredDistsToMultiGeneric(qs []float32, m, dim, rows int, block, out []float32) {
	for r := 0; r < rows; r++ {
		row := block[r*dim : r*dim+dim : r*dim+dim]
		for j := 0; j < m; j++ {
			out[j*rows+r] = sqDist32Row(qs[j*dim:j*dim+dim:j*dim+dim], row)
		}
	}
}

// Uint8SquaredDistsToMulti is SquaredDistsToMulti over SQ8 codes:
// out[j*rows+r] = Σ_i (query_j[i]−row_r[i])² in int32 — exact integer
// arithmetic, identical to m independent Uint8SquaredDistsTo calls.
func Uint8SquaredDistsToMulti(qs []uint8, m int, block []uint8, out []int32) {
	dim, rows := multiDims(len(qs), m, len(block), len(out))
	if dim == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	if rows == 0 {
		return
	}
	if uint8MultiKernel != nil && uint8BatchKernel != nil && dim >= 16 {
		j := 0
		for ; j+multiWidth <= m; j += multiWidth {
			uint8MultiKernel(&qs[j*dim], dim, &block[0], &out[j*rows], rows, rows)
		}
		for ; j < m; j++ {
			uint8BatchKernel(&qs[j*dim], dim, &block[0], &out[j*rows], rows)
		}
		return
	}
	uint8SquaredDistsToMultiGeneric(qs, m, dim, rows, block, out)
}

// uint8SquaredDistsToMultiGeneric is the portable multi-query kernel (and the
// reference the accelerated implementations are tested against).
func uint8SquaredDistsToMultiGeneric(qs []uint8, m, dim, rows int, block []uint8, out []int32) {
	for r := 0; r < rows; r++ {
		row := block[r*dim : r*dim+dim : r*dim+dim]
		for j := 0; j < m; j++ {
			q := qs[j*dim : j*dim+dim : j*dim+dim]
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
			out[j*rows+r] = s0 + s1 + s2 + s3
		}
	}
}
