package vec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

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
// backs Uint8SquaredDistsTo on this CPU. Scans use it to choose between a
// chunked batch sweep (SIMD-friendly) and a per-row capped scan (better for
// the portable kernels, which early-exit against the selection threshold).
func HasAcceleratedUint8Batch() bool { return uint8BatchKernel != nil }

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

// Uint8SquaredDistCapped is Uint8SquaredDist with partial-distance early
// exit: the scan checks the running sum against limit every eight components
// and returns the partial sum once it reaches limit. Terms are non-negative,
// so for any limit the returned value r satisfies
//
//	r < limit  ⟺  Uint8SquaredDist(q, v) < limit
//
// and whenever r < limit it equals the full distance (no exit fired and the
// remaining terms were consumed). Callers must use the result only for
// strict below-limit decisions, or as the exact code distance when it is
// below limit — the same contract as SquaredDistCapped.
func Uint8SquaredDistCapped(q, v []uint8, limit int32) int32 {
	if len(q) != len(v) {
		panic(fmt.Sprintf("vec: code dims %d != %d", len(q), len(v)))
	}
	var s int32
	i := 0
	for ; i+8 <= len(q); i += 8 {
		d0 := int32(q[i]) - int32(v[i])
		d1 := int32(q[i+1]) - int32(v[i+1])
		d2 := int32(q[i+2]) - int32(v[i+2])
		d3 := int32(q[i+3]) - int32(v[i+3])
		d4 := int32(q[i+4]) - int32(v[i+4])
		d5 := int32(q[i+5]) - int32(v[i+5])
		d6 := int32(q[i+6]) - int32(v[i+6])
		d7 := int32(q[i+7]) - int32(v[i+7])
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5 + d6*d6 + d7*d7
		if s >= limit {
			return s
		}
	}
	for ; i < len(q); i++ {
		d := int32(q[i]) - int32(v[i])
		s += d * d
	}
	return s
}

// quantEntry is one candidate in a QuantTopK selection.
type quantEntry struct {
	dist int32
	id   int
}

// QuantTopK selects the k smallest (code distance, id) pairs from a stream of
// candidates — the approximate-TopK of a flat two-phase scan's quantized
// sweep (package baseline; the R*-tree filters leaf rows against its exact
// radius instead and has no use for one).
// It mirrors TopK's bounded max-heap with the same strict-< admission rule,
// but keyed on int32 code distances, so Threshold() is the exact limit to
// pass to Uint8SquaredDistCapped.
//
// The selector's exactness property feeding the rerank guarantee: admission
// thresholds only decrease, so every candidate NOT retained at the end had a
// code distance >= the final Threshold(). The rerank phase uses that bound to
// prove no excluded point can enter the exact top-k.
type QuantTopK struct {
	k int
	h []quantEntry
}

// NewQuantTopK returns a selector for the k smallest candidates. k <= 0
// selects nothing.
func NewQuantTopK(k int) *QuantTopK {
	if k < 0 {
		k = 0
	}
	return &QuantTopK{k: k, h: make([]quantEntry, 0, k)}
}

// Reset empties the selector for reuse, keeping its buffer.
func (t *QuantTopK) Reset(k int) {
	if k < 0 {
		k = 0
	}
	t.k = k
	t.h = t.h[:0]
}

// Len returns the number of candidates currently retained.
func (t *QuantTopK) Len() int { return len(t.h) }

// Threshold returns the current admission bound: MaxInt32 until k candidates
// are retained, then the largest retained code distance. A candidate is
// admitted iff its distance is strictly below Threshold.
func (t *QuantTopK) Threshold() int32 {
	if len(t.h) < t.k {
		return math.MaxInt32
	}
	if t.k == 0 {
		return math.MinInt32
	}
	return t.h[0].dist
}

// Add offers one candidate. Distances compared against the threshold may be
// capped partials (see Uint8SquaredDistCapped): a rejected candidate's value
// is never stored, and an admitted one was below the limit and therefore
// exact.
func (t *QuantTopK) Add(dist int32, id int) {
	if t.k == 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, quantEntry{dist: dist, id: id})
		h := t.h
		j := len(h) - 1
		for {
			i := (j - 1) / 2
			if i == j || !(h[j].dist > h[i].dist) {
				break
			}
			h[i], h[j] = h[j], h[i]
			j = i
		}
		return
	}
	if dist < t.h[0].dist {
		t.h[0] = quantEntry{dist: dist, id: id}
		h := t.h
		n := len(h)
		i := 0
		for {
			j1 := 2*i + 1
			if j1 >= n {
				break
			}
			j := j1
			if j2 := j1 + 1; j2 < n && h[j2].dist > h[j1].dist {
				j = j2
			}
			if !(h[j].dist > h[i].dist) {
				break
			}
			h[i], h[j] = h[j], h[i]
			i = j
		}
	}
}

// AppendIDs appends the retained candidate IDs to dst in ascending
// (code distance, id) order and returns the extended slice. The selector is
// left in an unspecified order; Reset before reuse.
func (t *QuantTopK) AppendIDs(dst []int) []int {
	es := t.h
	// The heap order is far from sorted and a widened rerank retains up to
	// the whole scanned range, so this must not be quadratic.
	slices.SortFunc(es, func(a, b quantEntry) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, e := range es {
		dst = append(dst, e.id)
	}
	return dst
}
