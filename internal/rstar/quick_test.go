package rstar

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"qdcbir/internal/vec"
)

// rectFrom builds a valid rect from two arbitrary corner arrays.
func rectFrom(a, b [3]float64) (Rect, bool) {
	min := make(vec.Vector, 3)
	max := make(vec.Vector, 3)
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) || math.IsInf(a[i], 0) || math.IsInf(b[i], 0) {
			return Rect{}, false
		}
		min[i] = math.Min(a[i], b[i])
		max[i] = math.Max(a[i], b[i])
	}
	return Rect{Min: min, Max: max}, true
}

func TestQuickUnionCommutativeAndAbsorbing(t *testing.T) {
	f := func(a1, a2, b1, b2 [3]float64) bool {
		ra, ok1 := rectFrom(a1, a2)
		rb, ok2 := rectFrom(b1, b2)
		if !ok1 || !ok2 {
			return true
		}
		u1 := ra.Union(rb)
		u2 := rb.Union(ra)
		if !u1.Min.Equal(u2.Min) || !u1.Max.Equal(u2.Max) {
			return false
		}
		// Union with self is identity; union contains both.
		self := ra.Union(ra)
		if !self.Min.Equal(ra.Min) || !self.Max.Equal(ra.Max) {
			return false
		}
		return u1.ContainsRect(ra) && u1.ContainsRect(rb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickContainsImpliesZeroMinDist(t *testing.T) {
	f := func(a1, a2 [3]float64, p [3]float64) bool {
		r, ok := rectFrom(a1, a2)
		if !ok {
			return true
		}
		for _, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		pt := vec.Vector(p[:])
		if r.Contains(pt) {
			return r.MinDistSq(pt) == 0
		}
		return r.MinDistSq(pt) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectsSymmetricAndOverlapConsistent(t *testing.T) {
	f := func(a1, a2, b1, b2 [2]float64) bool {
		ra, ok1 := rectFrom3(a1, a2)
		rb, ok2 := rectFrom3(b1, b2)
		if !ok1 || !ok2 {
			return true
		}
		if ra.Intersects(rb) != rb.Intersects(ra) {
			return false
		}
		// Positive overlap volume implies intersection.
		if ra.OverlapArea(rb) > 0 && !ra.Intersects(rb) {
			return false
		}
		// Disjoint rects have zero overlap.
		if !ra.Intersects(rb) && ra.OverlapArea(rb) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func rectFrom3(a, b [2]float64) (Rect, bool) {
	min := make(vec.Vector, 2)
	max := make(vec.Vector, 2)
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) || math.IsInf(a[i], 0) || math.IsInf(b[i], 0) {
			return Rect{}, false
		}
		min[i] = math.Min(a[i], b[i])
		max[i] = math.Max(a[i], b[i])
	}
	return Rect{Min: min, Max: max}, true
}

// A tree built by insertion must find every inserted point at distance 0
// by self-query — across arbitrary (finite) coordinates.
func TestQuickInsertThenFind(t *testing.T) {
	f := func(ps [][3]float64) bool {
		var items []Item
	points:
		for _, p := range ps {
			for _, x := range p {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					continue points
				}
			}
			items = append(items, Item{ID: ItemID(len(items)), Point: vec.Vector{p[0], p[1], p[2]}})
		}
		tr, err := InsertLoadCtx(context.Background(), 3, Config{MaxFill: 8, MinFill: 3}, items)
		if err != nil || tr.CheckInvariants() != nil {
			return false
		}
		for _, it := range items {
			if got := tr.KNN(it.Point, 1, nil); len(got) != 1 || got[0].Dist != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
