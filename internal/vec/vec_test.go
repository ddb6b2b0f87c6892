package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone shares backing array: v=%v", v)
	}
	if !v.Equal(Vector{1, 2, 3}) {
		t.Fatalf("original mutated: %v", v)
	}
}

func TestEqual(t *testing.T) {
	tests := []struct {
		a, b Vector
		want bool
	}{
		{Vector{1, 2}, Vector{1, 2}, true},
		{Vector{1, 2}, Vector{1, 3}, false},
		{Vector{1, 2}, Vector{1, 2, 3}, false},
		{Vector{}, Vector{}, true},
		{nil, Vector{}, true},
	}
	for i, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("case %d: Equal(%v,%v)=%v want %v", i, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	if got := Add(a, b); !got.Equal(Vector{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(Vector{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	// In-place variants mutate the receiver.
	v := a.Clone()
	v.AddInPlace(b)
	if !v.Equal(Vector{5, 7, 9}) {
		t.Errorf("AddInPlace = %v", v)
	}
	v.ScaleInPlace(3)
	if !v.Equal(Vector{15, 21, 27}) {
		t.Errorf("ScaleInPlace = %v", v)
	}
}

func TestDistances(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{3, 4}
	if got := L2(a, b); got != 5 {
		t.Errorf("L2 = %v", got)
	}
	if got := SqL2(a, b); got != 25 {
		t.Errorf("SqL2 = %v", got)
	}
}

func TestWeightedDistance(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{1, 2}
	w := Vector{4, 1}
	if got := WeightedSqL2(a, b, w); got != 8 {
		t.Errorf("WeightedSqL2 = %v want 8", got)
	}
	// Unit weights reduce to plain L2.
	if got, want := WeightedSqL2(a, b, Vector{1, 1}), SqL2(a, b); got != want {
		t.Errorf("unit-weight WeightedSqL2 = %v want %v", got, want)
	}
}

func TestCentroid(t *testing.T) {
	vs := []Vector{{0, 0}, {2, 4}, {4, 2}}
	if got := Centroid(vs); !got.Equal(Vector{2, 2}) {
		t.Errorf("Centroid = %v", got)
	}
	// Single element centroid is the element itself (copied).
	c := Centroid([]Vector{{7, 8}})
	if !c.Equal(Vector{7, 8}) {
		t.Errorf("single centroid = %v", c)
	}
}

func TestCentroidEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Centroid(nil) did not panic")
		}
	}()
	Centroid(nil)
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("L2 with mismatched dims did not panic")
		}
	}()
	L2(Vector{1}, Vector{1, 2})
}

func TestNearestIndex(t *testing.T) {
	vs := []Vector{{0, 0}, {5, 5}, {1, 1}}
	idx, d := NearestIndex(Vector{1, 2}, vs, L2)
	if idx != 2 {
		t.Errorf("NearestIndex = %d want 2", idx)
	}
	if !almostEqual(d, 1, 1e-12) {
		t.Errorf("distance = %v want 1", d)
	}
	idx, d = NearestIndex(Vector{1, 2}, nil, L2)
	if idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty NearestIndex = %d,%v", idx, d)
	}
}

func randomVectors(rng *rand.Rand, n, dim int) []Vector {
	vs := make([]Vector, n)
	for i := range vs {
		v := make(Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vs[i] = v
	}
	return vs
}

// Property: L2 satisfies the metric axioms on random vectors.
func TestL2MetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		vs := randomVectors(rng, 3, 8)
		a, b, c := vs[0], vs[1], vs[2]
		if L2(a, a) != 0 {
			t.Fatalf("identity violated: %v", L2(a, a))
		}
		if d1, d2 := L2(a, b), L2(b, a); !almostEqual(d1, d2, 1e-12) {
			t.Fatalf("symmetry violated: %v vs %v", d1, d2)
		}
		if L2(a, b) < 0 {
			t.Fatal("negative distance")
		}
		if L2(a, c) > L2(a, b)+L2(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", L2(a, c), L2(a, b), L2(b, c))
		}
	}
}

// Property: centroid minimizes sum of squared L2 distances (first-order
// check: perturbing the centroid never decreases the objective).
func TestCentroidMinimizesSquaredError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	obj := func(c Vector, vs []Vector) float64 {
		var s float64
		for _, v := range vs {
			s += SqL2(c, v)
		}
		return s
	}
	for iter := 0; iter < 100; iter++ {
		vs := randomVectors(rng, 5+rng.Intn(10), 6)
		c := Centroid(vs)
		base := obj(c, vs)
		for trial := 0; trial < 10; trial++ {
			p := c.Clone()
			p[rng.Intn(len(p))] += rng.NormFloat64() * 0.1
			if obj(p, vs) < base-1e-9 {
				t.Fatalf("perturbed centroid beats centroid: %v < %v", obj(p, vs), base)
			}
		}
	}
}

func TestQuickSqL2NonNegativeAndConsistent(t *testing.T) {
	f := func(a, b [12]float64) bool {
		va, vb := Vector(a[:]), Vector(b[:])
		sq := SqL2(va, vb)
		if sq < 0 {
			return false
		}
		l2 := L2(va, vb)
		if math.IsNaN(l2) || math.IsInf(l2, 0) {
			// Extreme quick-generated values can overflow; skip those.
			return true
		}
		return almostEqual(l2*l2, sq, 1e-6*math.Max(1, sq))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(a, b [9]float64) bool {
		va, vb := Vector(a[:]), Vector(b[:])
		got := Sub(Add(va, vb), vb)
		for i := range got {
			if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
				return true // overflow territory, not meaningful
			}
			if !almostEqual(got[i], va[i], 1e-6*math.Max(1, math.Abs(va[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
