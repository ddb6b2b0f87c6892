package vec

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the MINDIST kernels of the R*-tree descent: the squared
// distance from a query to the nearest point of an axis-aligned rectangle.
// The textbook loop
//
//	if q[i] < min[i] { d = min[i] - q[i] } else if q[i] > max[i] { d = q[i] - max[i] }
//
// takes two data-dependent branches per dimension that no predictor learns
// (which side of a node a query falls on is the information the tree encodes),
// so the clamp here is computed without branches: q < min exactly when
// min − q > 0, in IEEE arithmetic as in the reals (a difference of distinct
// finite values never rounds to zero; an Inf − Inf or NaN operand gives NaN,
// which is not > 0, just as the comparison it replaces is false), and "> 0" is
// an integer range test on the difference's bits. The sum keeps one
// accumulator in index order, so the result is bit-identical to the comparing
// loop for every input — NaN and ±Inf coordinates and inverted rectangles
// (min > max, where the loop's first branch wins) included; mindist_test.go
// keeps that loop as the reference.
//
// MinDistSqChildren bounds all of an internal node's children in one pass,
// each child a lane with its own accumulator summing in index order, so every
// lane is the bits MinDistSq gives that child. Each product is rounded before
// it is added (the explicit float64 conversions), so no build may contract a
// term into a fused multiply-add: the AVX2 body multiplies and adds
// separately, and the Go loops have to agree with it under every GOAMD64
// level and on every architecture.

// clampGap returns below if it is > 0, else above if that is > 0, else 0 —
// the distance from a coordinate to [min, max] given below = min − q and
// above = q − max.
func clampGap(below, above float64) float64 {
	// x > 0 iff its bits lie in [1, bits(+Inf)]: zero wraps to the top of the
	// range, negatives have the sign bit set, NaNs sit above +Inf.
	const inf = 0x7FF0000000000000
	b, a := math.Float64bits(below), math.Float64bits(above)
	_, bPos := bits.Sub64(b-1, inf, 0)
	_, aPos := bits.Sub64(a-1, inf, 0)
	return math.Float64frombits(b&-bPos | a&-aPos&^-bPos)
}

// MinDistSq returns the squared Euclidean distance from q to the nearest
// point of the rectangle [min, max] (0 if q is inside): the MINDIST bound of
// best-first k-NN. min and max must be at least as long as q.
func MinDistSq(q, min, max Vector) float64 {
	min, max = min[:len(q)], max[:len(q)]
	var s float64
	for i, qi := range q {
		d := clampGap(min[i]-qi, qi-max[i])
		s += float64(d * d)
	}
	return s
}

// WeightedMinDistSq is MinDistSq under the diagonal-weighted metric of
// WeightedSqL2, a lower bound on it for non-negative weights.
func WeightedMinDistSq(q, weights, min, max Vector) float64 {
	min, max, weights = min[:len(q)], max[:len(q)], weights[:len(q)]
	var s float64
	for i, qi := range q {
		d := clampGap(min[i]-qi, qi-max[i])
		s += float64(weights[i] * d * d)
	}
	return s
}

// minDistChildrenKernel, when non-nil, is a platform-accelerated body of
// MinDistSqChildren for n >= 4 children and dim >= 1 (amd64: AVX2, installed
// by init when the CPU supports it and the build is not tagged noasm); w is
// nil for the unweighted metric. Every lane it writes is bit-identical to the
// portable body's.
var minDistChildrenKernel func(q, w *float64, dim int, box *float64, n int, out *float64)

// MinDistSqChildren sets out[c] to MinDistSq(q, min_c, max_c) — or, when
// weights is non-nil, WeightedMinDistSq(q, weights, min_c, max_c) — for the n
// rectangles packed in box, bit for bit. box holds them dimension-major: for
// each dimension d, the n children's Min[d] and then their n Max[d], so
// min_c[d] = box[2nd+c] and max_c[d] = box[2nd+n+c]. It panics unless
// len(box) == 2·n·len(q) and len(out) >= n.
func MinDistSqChildren(q, weights Vector, box []float64, n int, out []float64) {
	dim := len(q)
	if n < 0 || len(box) != 2*n*dim || len(out) < n {
		panic(fmt.Sprintf("vec: box %d for %d children x %d dims, out %d", len(box), n, dim, len(out)))
	}
	if weights != nil {
		weights = weights[:dim]
	}
	out = out[:n]
	if minDistChildrenKernel != nil && n >= 4 && dim > 0 {
		var w *float64
		if weights != nil {
			w = &weights[0]
		}
		minDistChildrenKernel(&q[0], w, dim, &box[0], n, &out[0])
		return
	}
	minDistSqChildrenGeneric(q, weights, box, out)
}

// minDistSqChildrenGeneric is the portable body of MinDistSqChildren (and the
// reference the accelerated one is tested against): children outer, four at
// a time, so four children's sums — each MinDistSq's loop over its own
// coordinates — overlap, and a dimension's four Min and four Max values are
// each one contiguous read. The weighted form is a loop of its own, which
// keeps a per-dimension branch out of the plain one.
func minDistSqChildrenGeneric(q, weights Vector, box []float64, out []float64) {
	if weights != nil {
		weightedMinDistSqChildren(q, weights, box, out)
		return
	}
	n := len(out)
	stride := 2 * n
	c := 0
	for ; c+4 <= n; c += 4 {
		var s0, s1, s2, s3 float64
		j := c // dimension i's Min of child c; its Max is n further on
		for _, qi := range q {
			lo := box[j : j+4 : j+4]
			hi := box[j+n : j+n+4 : j+n+4]
			j += stride
			d0 := clampGap(lo[0]-qi, qi-hi[0])
			d1 := clampGap(lo[1]-qi, qi-hi[1])
			d2 := clampGap(lo[2]-qi, qi-hi[2])
			d3 := clampGap(lo[3]-qi, qi-hi[3])
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	for ; c < n; c++ {
		var s float64
		for i, qi := range q {
			d := clampGap(box[i*stride+c]-qi, qi-box[i*stride+n+c])
			s += float64(d * d)
		}
		out[c] = s
	}
}

func weightedMinDistSqChildren(q, weights Vector, box []float64, out []float64) {
	n := len(out)
	stride := 2 * n
	c := 0
	for ; c+4 <= n; c += 4 {
		var s0, s1, s2, s3 float64
		j := c
		for i, qi := range q {
			lo := box[j : j+4 : j+4]
			hi := box[j+n : j+n+4 : j+n+4]
			j += stride
			w := weights[i]
			d0 := clampGap(lo[0]-qi, qi-hi[0])
			d1 := clampGap(lo[1]-qi, qi-hi[1])
			d2 := clampGap(lo[2]-qi, qi-hi[2])
			d3 := clampGap(lo[3]-qi, qi-hi[3])
			s0 += float64(w * d0 * d0)
			s1 += float64(w * d1 * d1)
			s2 += float64(w * d2 * d2)
			s3 += float64(w * d3 * d3)
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	for ; c < n; c++ {
		var s float64
		for i, qi := range q {
			d := clampGap(box[i*stride+c]-qi, qi-box[i*stride+n+c])
			s += float64(weights[i] * d * d)
		}
		out[c] = s
	}
}
