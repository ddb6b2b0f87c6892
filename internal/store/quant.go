package store

import (
	"fmt"
	"math"

	"qdcbir/internal/vec"
)

// This file adds the SQ8 scalar-quantized representation beside the float
// FeatureStore: every vector component compresses to one uint8 code, an 8x
// memory reduction, scanned with the int32 kernels in internal/vec.
//
// Design. Per-dimension minima and maxima are trained over the store at
// build time, but all dimensions share ONE step size
//
//	delta = max_i(maxs[i] - mins[i]) / 255
//
// so that the per-dimension offsets cancel in a symmetric distance: with
// decode(c)[i] = mins[i] + c[i]*delta,
//
//	||decode(a) - decode(b)||² = delta² * Σ_i (a[i]-b[i])²
//
// — an int32 accumulation and a single float multiply at the end. A per-
// dimension delta would need per-term float scaling and forfeit the integer
// hot loop.
//
// Exactness bookkeeping. Encoding a stored (training-range, finite) value
// rounds to the nearest code, so |v - decode(code)| <= delta/2 per dimension
// and every stored point p satisfies
//
//	||p - decode(codes(p))|| <= (delta/2)*sqrt(dim)  =: DBErr
//
// A query is encoded at search time and its exact decode error
// ||q - decode(codes(q))|| is measured directly (EncodeQuery). The triangle
// inequality then bounds how far a code distance can sit from the true
// distance (LowerDist), which is what lets the R*-tree descent and the shard
// legs skip rows unscored (CodeRadius). Corpora containing NaN or
// ±Inf components set clean=false and DBErr=+Inf: every search over them
// falls back to the exact path rather than trust the bound.

// maxSQ8Dim bounds the dimensionality so a full code distance fits int32:
// dim * 255² <= MaxInt32.
const maxSQ8Dim = math.MaxInt32 / (255 * 255)

// Quantized is the SQ8 companion of a FeatureStore: n dimension-strided
// uint8 code vectors in one contiguous backing array, in the same row order
// as the float store it was trained on. Immutable after construction and
// safe for unsynchronized concurrent reads.
type Quantized struct {
	dim   int
	n     int
	codes []uint8
	mins  []float64 // per-dimension training minimum
	maxs  []float64 // per-dimension training maximum
	delta float64   // shared code step (0 for a constant corpus)
	clean bool      // every training value was finite
	dbErr float64   // (delta/2)*sqrt(dim) when clean, +Inf otherwise
}

// Quantize trains an SQ8 quantizer on the store and encodes every row. It
// works for either store precision: a Float32 store trains over its exact
// float64 widening, so the trained ranges and codes are identical to training
// on the native float32 values.
func Quantize(s *FeatureStore) (*Quantized, error) {
	return QuantizeBacking(s.dim, s.data)
}

// QuantizeBacking32 trains on and encodes a float32 dimension-strided backing
// array. Each value widens exactly to float64 as it is read, so the result is
// bit-identical to QuantizeBacking over the widened array without ever
// holding that widened copy: it allocates the codes and O(dim) bounds. The
// data is read, never retained.
func QuantizeBacking32(dim int, data []float32) (*Quantized, error) {
	return quantizeBacking(dim, data)
}

// QuantizeBacking trains on and encodes a dimension-strided backing array
// (len(data) must be a multiple of dim). The data is read, never retained.
func QuantizeBacking(dim int, data []float64) (*Quantized, error) {
	return quantizeBacking(dim, data)
}

// quantizeBacking is QuantizeBacking at either storage precision: training
// and encoding read every value through its exact float64 widening.
func quantizeBacking[T float32 | float64](dim int, data []T) (*Quantized, error) {
	if dim <= 0 {
		if len(data) != 0 {
			return nil, fmt.Errorf("store: quantize dim %d with %d values", dim, len(data))
		}
		return &Quantized{clean: true}, nil
	}
	if dim > maxSQ8Dim {
		return nil, fmt.Errorf("store: quantize dim %d exceeds SQ8 limit %d", dim, maxSQ8Dim)
	}
	if len(data)%dim != 0 {
		return nil, fmt.Errorf("store: quantize backing length %d not a multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	q := &Quantized{
		dim:   dim,
		n:     n,
		codes: make([]uint8, len(data)),
		mins:  make([]float64, dim),
		maxs:  make([]float64, dim),
		clean: true,
	}
	for i := range q.mins {
		q.mins[i] = math.Inf(1)
		q.maxs[i] = math.Inf(-1)
	}
	for r := 0; r < n; r++ {
		row := data[r*dim : (r+1)*dim]
		for i, x := range row {
			v := float64(x)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				q.clean = false
				continue
			}
			if v < q.mins[i] {
				q.mins[i] = v
			}
			if v > q.maxs[i] {
				q.maxs[i] = v
			}
		}
	}
	q.finishTraining()
	for r := 0; r < n; r++ {
		encode(q, data[r*dim:(r+1)*dim], q.codes[r*dim:(r+1)*dim])
	}
	return q, nil
}

// finishTraining derives delta and the DB-side error bound from the trained
// ranges, normalizing dimensions that never saw a finite value (empty or
// fully non-finite corpora) to a [0,0] range.
func (q *Quantized) finishTraining() {
	var span float64
	for i := range q.mins {
		if q.mins[i] > q.maxs[i] { // no finite value seen
			q.mins[i], q.maxs[i] = 0, 0
		}
		if w := q.maxs[i] - q.mins[i]; w > span {
			span = w
		}
	}
	q.delta = span / 255
	if q.clean {
		q.dbErr = q.delta / 2 * math.Sqrt(float64(q.dim))
	} else {
		q.dbErr = math.Inf(1)
	}
}

// encode writes the codes of one vector: nearest-code rounding, clamped to
// [0, 255]. NaN components encode to 0 (their decode error is unbounded,
// which the clean flag already accounts for); ±Inf clamp to the range ends.
func encode[T float32 | float64](q *Quantized, v []T, dst []uint8) {
	for i, x := range v {
		if q.delta == 0 {
			dst[i] = 0
			continue
		}
		c := (float64(x) - q.mins[i]) / q.delta
		switch {
		case math.IsNaN(c):
			dst[i] = 0
		case c <= 0:
			dst[i] = 0
		case c >= 255:
			dst[i] = 255
		default:
			dst[i] = uint8(c + 0.5)
		}
	}
}

// Len returns the number of code vectors stored.
func (q *Quantized) Len() int { return q.n }

// Dim returns the code dimensionality.
func (q *Quantized) Dim() int { return q.dim }

// Clean reports whether every training value was finite — the precondition
// for DBErr (and so for the rerank exactness guarantee) to hold.
func (q *Quantized) Clean() bool { return q.clean }

// Delta returns the shared code step size.
func (q *Quantized) Delta() float64 { return q.delta }

// DBErr returns the per-point decode error bound (delta/2)*sqrt(dim), or
// +Inf for an unclean corpus.
func (q *Quantized) DBErr() float64 { return q.dbErr }

// Bounds returns the trained per-dimension minima and maxima (shared slices;
// read-only).
func (q *Quantized) Bounds() (mins, maxs []float64) { return q.mins, q.maxs }

// Codes returns the whole code backing array, shared and read-only.
// Persistence serializes this directly.
func (q *Quantized) Codes() []uint8 { return q.codes }

// Row returns the code vector of row id as a capped zero-copy view.
func (q *Quantized) Row(id int) []uint8 {
	base := id * q.dim
	return q.codes[base : base+q.dim : base+q.dim]
}

// Block returns the contiguous codes of rows [lo, hi), suitable for
// vec.Uint8SquaredDistsTo.
func (q *Quantized) Block(lo, hi int) []uint8 {
	return q.codes[lo*q.dim : hi*q.dim : hi*q.dim]
}

// Bytes returns the size of the codes table in bytes — the quantity the
// memory-saving benchmarks report against 8*dim*n for the float table.
func (q *Quantized) Bytes() int { return len(q.codes) }

// EncodeQuery encodes a query vector into dst (grown as needed) and returns
// the codes together with the query's exact decode error ||v - decode(codes)||.
// Queries may fall outside the training range; clamping only inflates the
// returned error, never invalidates it. A query with NaN components yields a
// NaN error, which fails every guarantee comparison and forces the exact
// fallback.
func (q *Quantized) EncodeQuery(v vec.Vector, dst []uint8) ([]uint8, float64) {
	if len(v) != q.dim {
		panic(fmt.Sprintf("store: query dim %d != quantized dim %d", len(v), q.dim))
	}
	if cap(dst) < q.dim {
		dst = make([]uint8, q.dim)
	}
	dst = dst[:q.dim]
	encode(q, []float64(v), dst)
	var sq float64
	for i, x := range v {
		d := x - (q.mins[i] + float64(dst[i])*q.delta)
		sq += d * d
	}
	return dst, math.Sqrt(sq)
}

// DecodedDist converts a code distance from the int32 kernels to the metric
// scale: delta * sqrt(raw) is the Euclidean distance between the two decoded
// vectors.
func (q *Quantized) DecodedDist(raw int32) float64 {
	return q.delta * math.Sqrt(float64(raw))
}

// certMargin is the relative margin the exactness comparisons below apply, so
// float rounding in the sqrt/delta arithmetic (and in encode's rounding at a
// half-step boundary) can never prune what the real-number inequality would
// not.
const certMargin = 1e-9

// LowerDist is the SQ8 bracket every exact search over q's codes rests on.
// With raw the code distance between a stored row's codes and the query's,
// qErr the query's measured decode error (EncodeQuery) and DBErr the
// per-point bound, the triangle inequality through the two decoded vectors
// puts the row's true distance to the query at least
//
//	DecodedDist(raw) - qErr - DBErr
//
// away. It is -Inf on an unclean corpus and NaN for a NaN query: neither
// bounds anything.
func (q *Quantized) LowerDist(raw int32, qErr float64) float64 {
	return q.DecodedDist(raw) - qErr - q.dbErr
}

// CodeRadius turns a pruning radius into code space: a stored row whose true
// distance to the query is at most radius has a code distance of at most
// CodeRadius(radius, qErr), so a search holding k rows within radius may skip
// every row whose code distance is larger without scoring it — such a row is
// strictly farther than radius, and so not even a tie at the k-th distance.
// This is LowerDist(raw, qErr) > radius solved for raw, with certMargin on
// both sides. MaxInt32 (skip nothing) whenever the bound says nothing: an
// infinite radius, a NaN query, an unclean corpus, a constant one.
func (q *Quantized) CodeRadius(radius, qErr float64) int32 {
	reach := (radius*(1+certMargin) + qErr + q.dbErr) * (1 + certMargin) / q.delta
	if r := reach * reach; r < math.MaxInt32 {
		return int32(r)
	}
	return math.MaxInt32
}

// CodeRadius32 and CodeRadius64 are CodeRadius for a radius stated the way a
// linear sweep holds it: kth, the squared distance a rounding kernel computed
// for the k-th row, not a real distance. A stored row whose code distance
// exceeds the returned limit has a kernel value strictly greater than kth, so
// it is neither in the top-k nor a tie at its boundary. CodeRadius32 serves
// the float32 kernel (vec.SqL232, SquaredDistsTo32); qErr must then be the
// decode error of the query that kernel scores, the float32 narrowing,
// widened back. CodeRadius64 serves the float64 kernel (vec.SqL2,
// SquaredDistsTo).
//
// Why. Let u be the kernel's unit roundoff (2⁻²⁴, 2⁻⁵³) and η its smallest
// subnormal (2⁻¹⁴⁹, 2⁻¹⁰⁷⁴). For query and row values exact at the kernel's
// precision, let D = Σ(qᵢ−pᵢ)² in real arithmetic and K the kernel's value.
//   - A difference rounds to (qᵢ−pᵢ)(1+δ), |δ| ≤ u; it is exact when the
//     result is subnormal, and an overflow to ±Inf makes K = +Inf.
//   - A square rounds to at least (1−u)·d² − η: a relative error above the
//     normal range, under half a subnormal step below it.
//   - A sum of non-negative terms rounds to at least (1−u)(a+b), exactly in
//     the subnormal range; a fused multiply-add rounds once and does no worse.
//   - A term passes through at most h additions: ⌊dim/8⌋ in its lane, 3 in
//     the lane reduction and dim mod 8 in the tail for float32 (the canonical
//     order in vec/kernel32.go), at most dim left to right for float64.
//
// Hence K ≥ (1−u)^(h+3)·D − dim·η ≥ (1−γ)D − dim·η with γ = (h+3)u. A row
// with D > (kth + dim·η)(1+2γ) therefore has K > kth, because
// (1−γ)(1+2γ) ≥ 1 for γ ≤ ½. The limit is CodeRadius at the square root of
// that bound, whose 1e-9 margin absorbs the float64 roundings computing it.
// FuzzSQ8Bracket32, and checkSQ8Bracket for float64, test the claim over
// every pair of rows, one row's kernel value serving as the other's radius.
func (q *Quantized) CodeRadius32(kth float32, qErr float64) int32 {
	return q.kernelCodeRadius(float64(kth), qErr, q.dim/8+3+q.dim%8, 0x1p-24, 0x1p-149)
}

// CodeRadius64 is CodeRadius32 for the float64 kernel; see CodeRadius32.
func (q *Quantized) CodeRadius64(kth, qErr float64) int32 {
	return q.kernelCodeRadius(kth, qErr, q.dim, 0x1p-53, 0x1p-1074)
}

// kernelCodeRadius is the shared bound of CodeRadius32 and CodeRadius64: h
// additions per term, unit roundoff u, smallest subnormal eta.
func (q *Quantized) kernelCodeRadius(kth, qErr float64, h int, u, eta float64) int32 {
	gamma := float64(h+3) * u
	reach := (kth + float64(q.dim)*eta) * (1 + 2*gamma)
	return q.CodeRadius(math.Sqrt(reach), qErr)
}

// QuantParts is the serializable form of a Quantized: exactly the trained
// state, with delta and DBErr left to be re-derived on load. Archive v2
// embeds this gob-encoded.
type QuantParts struct {
	Dim   int
	Codes []uint8
	Mins  []float64
	Maxs  []float64
	Clean bool
}

// Parts returns the quantizer's serializable state. The slices are shared,
// not copied; treat them as read-only.
func (q *Quantized) Parts() QuantParts {
	return QuantParts{Dim: q.dim, Codes: q.codes, Mins: q.mins, Maxs: q.maxs, Clean: q.clean}
}

// FromParts reconstructs a Quantized from persisted parts (see FromQuantParts
// for the validation performed).
func FromParts(p QuantParts) (*Quantized, error) {
	return FromQuantParts(p.Dim, p.Codes, p.Mins, p.Maxs, p.Clean)
}

// FromQuantParts reconstructs a Quantized from persisted parts, re-deriving
// delta and DBErr from the bounds. It validates the shapes so a corrupt
// archive cannot produce a store whose views panic later.
func FromQuantParts(dim int, codes []uint8, mins, maxs []float64, clean bool) (*Quantized, error) {
	if dim <= 0 {
		if len(codes) != 0 || len(mins) != 0 || len(maxs) != 0 {
			return nil, fmt.Errorf("store: quantized parts with dim %d", dim)
		}
		return &Quantized{clean: clean}, nil
	}
	if dim > maxSQ8Dim {
		return nil, fmt.Errorf("store: quantized dim %d exceeds SQ8 limit %d", dim, maxSQ8Dim)
	}
	if len(mins) != dim || len(maxs) != dim {
		return nil, fmt.Errorf("store: quantized bounds %d/%d values, want %d", len(mins), len(maxs), dim)
	}
	if len(codes)%dim != 0 {
		return nil, fmt.Errorf("store: quantized codes length %d not a multiple of dim %d", len(codes), dim)
	}
	for i := range mins {
		if !(mins[i] <= maxs[i]) { // also rejects NaN bounds
			return nil, fmt.Errorf("store: quantized bounds inverted at dim %d (%g > %g)", i, mins[i], maxs[i])
		}
	}
	q := &Quantized{
		dim:   dim,
		n:     len(codes) / dim,
		codes: codes,
		mins:  mins,
		maxs:  maxs,
		clean: clean,
	}
	q.finishTraining()
	return q, nil
}
