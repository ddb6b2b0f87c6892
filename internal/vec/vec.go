// Package vec provides the dense-vector math substrate used throughout the
// query-decomposition CBIR system: distance functions, centroids, per-dimension
// statistics, and corpus normalizers.
//
// All retrieval structures in this repository (the R*-tree, the RFS structure,
// k-means, the baselines) operate on vec.Vector values. Vectors are plain
// []float64 so callers can construct them with composite literals and slice
// tricks; functions in this package never retain references to their inputs
// unless documented otherwise.
package vec

import (
	"fmt"
	"math"
)

// Vector is a point in a d-dimensional feature space.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Equal reports whether v and w have identical length and components.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// AddInPlace adds w into v component-wise. It panics if dimensions differ.
func (v Vector) AddInPlace(w Vector) {
	mustSameDim(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// ScaleInPlace multiplies every component of v by s.
func (v Vector) ScaleInPlace(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Add returns v + w as a new vector.
func Add(v, w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w as a new vector.
func Sub(v, w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Dot returns the inner product of v and w.
func Dot(v, w Vector) float64 {
	mustSameDim(v, w)
	var s float64
	for i := range v {
		s += float64(v[i] * w[i])
	}
	return s
}

// L2 returns the Euclidean distance between v and w.
func L2(v, w Vector) float64 { return math.Sqrt(SqL2(v, w)) }

// SqL2 returns the squared Euclidean distance between v and w. It is the
// preferred comparison key inside search loops because it avoids the sqrt.
func SqL2(v, w Vector) float64 {
	mustSameDim(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += float64(d * d)
	}
	return s
}

// CheckWeights validates a per-dimension weighting for a corpus of dim
// dimensions: nil (plain Euclidean) or dim non-negative weights. A negative
// weight would void WeightedMinDistSq's lower bound and with it every
// search's pruning, so each entry point that accepts weights calls this.
func CheckWeights(w []float64, dim int) error {
	if w == nil {
		return nil
	}
	if len(w) != dim {
		return fmt.Errorf("weight dim %d != corpus dim %d", len(w), dim)
	}
	for i, x := range w {
		if x < 0 {
			return fmt.Errorf("negative weight at dim %d", i)
		}
	}
	return nil
}

// WeightedSqL2 returns sum_i w_i (v_i - u_i)^2. Negative weights are invalid
// but not checked here: entry points reject them with CheckWeights.
func WeightedSqL2(v, u, weights Vector) float64 {
	mustSameDim(v, u)
	mustSameDim(v, weights)
	var s float64
	for i := range v {
		d := v[i] - u[i]
		s += float64(weights[i] * d * d)
	}
	return s
}

// DistFunc is a distance measure between two equal-dimension vectors.
type DistFunc func(a, b Vector) float64

// Centroid returns the arithmetic mean of the given vectors. It panics if the
// slice is empty or the vectors disagree on dimension.
func Centroid(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("vec: Centroid of empty set")
	}
	c := make(Vector, len(vs[0]))
	for _, v := range vs {
		c.AddInPlace(v)
	}
	c.ScaleInPlace(1 / float64(len(vs)))
	return c
}

// mustSameDim panics with a descriptive message when a and b differ in length.
func mustSameDim(a, b Vector) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
}

// NearestIndex returns the index in vs of the vector nearest q under dist,
// along with that distance. It returns (-1, +Inf) for an empty slice.
func NearestIndex(q Vector, vs []Vector, dist DistFunc) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, v := range vs {
		if d := dist(q, v); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
