package vec

import (
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
		s += d * d
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
		s += weights[i] * d * d
	}
	return s
}
