// Package rstar implements an in-memory R*-tree (Beckmann et al., SIGMOD
// 1990) over d-dimensional points: ChooseSubtree with minimum overlap
// enlargement, the R* split (axis by margin sum, index by overlap), forced
// reinsertion, best-first k-NN search, range search, deletion with tree
// condensation, and STR bulk loading.
//
// The paper builds its Relevance Feedback Support structure as "a
// hierarchical clustering technique, similar to the R*-tree" (§3.1); package
// rfs layers representative images on top of the nodes exposed here. Node
// accesses are reported to a disk.Accounter so experiments can count
// simulated I/O.
package rstar

import (
	"fmt"
	"math"

	"qdcbir/internal/vec"
)

// Rect is an axis-aligned d-dimensional rectangle (MBR).
type Rect struct {
	Min, Max vec.Vector
}

// PointRect returns the degenerate rectangle covering exactly p. The returned
// rect shares no storage with p.
func PointRect(p vec.Vector) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// NewRect validates and returns a rectangle. It panics if dimensions mismatch
// or any min exceeds the corresponding max.
func NewRect(min, max vec.Vector) Rect {
	if len(min) != len(max) {
		panic(fmt.Sprintf("rstar: rect dim mismatch %d vs %d", len(min), len(max)))
	}
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("rstar: rect min[%d]=%v > max[%d]=%v", i, min[i], i, max[i]))
		}
	}
	return Rect{Min: min, Max: max}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect { return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()} }

// Contains reports whether point p lies inside r (inclusive).
func (r Rect) Contains(p vec.Vector) bool {
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o share any point.
func (r Rect) Intersects(o Rect) bool {
	for i := range r.Min {
		if r.Min[i] > o.Max[i] || o.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	u := r.Clone()
	u.grow(o)
	return u
}

// grow widens r in place until it covers o. r must own its storage.
func (r Rect) grow(o Rect) {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] {
			r.Min[i] = o.Min[i]
		}
		if o.Max[i] > r.Max[i] {
			r.Max[i] = o.Max[i]
		}
	}
}

// Area returns the d-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the sum of edge lengths of r (the R* split criterion).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// OverlapArea returns the volume of the intersection of r and o, or 0 when
// they are disjoint.
func (r Rect) OverlapArea(o Rect) float64 {
	v := 1.0
	for i := range r.Min {
		lo := math.Max(r.Min[i], o.Min[i])
		hi := math.Min(r.Max[i], o.Max[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Enlargement returns the area increase required for r to cover o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Union(o).Area() - r.Area()
}

// Center returns the centre point of r.
func (r Rect) Center() vec.Vector {
	c := make(vec.Vector, len(r.Min))
	for i := range c {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// Diagonal returns the Euclidean length of r's main diagonal. The RFS
// boundary test (§3.3) divides a point's distance from the node centre by
// this value. Each product is rounded before it is summed (float64(...), as
// in vec), so no platform fuses it into a multiply-add.
func (r Rect) Diagonal() float64 {
	var s float64
	for i := range r.Min {
		d := r.Max[i] - r.Min[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// MinDistSq returns the squared Euclidean distance from p to the nearest
// point of r (0 if p is inside). This is the MINDIST bound that drives
// best-first k-NN pruning.
func (r Rect) MinDistSq(p vec.Vector) float64 { return vec.MinDistSq(p, r.Min, r.Max) }

// centerDistSq returns the squared distance between the centers of r and o;
// used by forced reinsertion to order entries. Products are rounded as in
// Diagonal.
func (r Rect) centerDistSq(o Rect) float64 {
	var s float64
	for i := range r.Min {
		d := float64((r.Min[i]+r.Max[i])/2) - float64((o.Min[i]+o.Max[i])/2)
		s += float64(d * d)
	}
	return s
}
