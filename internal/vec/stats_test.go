package vec

import (
	"math"
	"math/rand"
	"testing"
)

func TestComputeStatsKnownValues(t *testing.T) {
	vs := []Vector{{1, 10}, {2, 20}, {3, 30}}
	s := ComputeStats(vs)
	if s.N != 3 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEqual(s.Mean[0], 2, 1e-12) || !almostEqual(s.Mean[1], 20, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	// Population variance of {1,2,3} is 2/3.
	if !almostEqual(s.Variance[0], 2.0/3.0, 1e-12) {
		t.Errorf("Variance[0] = %v", s.Variance[0])
	}
	if !almostEqual(s.Variance[1], 200.0/3.0, 1e-9) {
		t.Errorf("Variance[1] = %v", s.Variance[1])
	}
	if s.Min[0] != 1 || s.Max[0] != 3 || s.Min[1] != 10 || s.Max[1] != 30 {
		t.Errorf("Min/Max = %v / %v", s.Min, s.Max)
	}
}

func TestComputeStatsSingleVector(t *testing.T) {
	s := ComputeStats([]Vector{{5, -3}})
	if !s.Mean.Equal(Vector{5, -3}) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Variance[0] != 0 || s.Variance[1] != 0 {
		t.Errorf("Variance = %v, want zeros", s.Variance)
	}
}

func TestComputeStatsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ComputeStats(nil)
}

func TestInverseVariance(t *testing.T) {
	s := ComputeStats([]Vector{{0, 7}, {2, 7}})
	w := s.InverseVariance(1e-6)
	if w[0] >= w[1] {
		t.Errorf("low-variance dim should receive larger weight: %v", w)
	}
	if math.IsInf(w[1], 0) {
		t.Error("eps guard failed: infinite weight on constant dimension")
	}
}

func TestMinMaxNormalizer(t *testing.T) {
	vs := []Vector{{0, 100, 5}, {10, 200, 5}}
	n := FitMinMax(vs)
	if n.Dim() != 3 {
		t.Fatalf("Dim = %d", n.Dim())
	}
	got := n.Apply(Vector{5, 150, 5})
	want := Vector{0.5, 0.5, 0} // constant dim maps to 0
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Apply[%d] = %v want %v", i, got[i], want[i])
		}
	}
	// All fitted vectors land inside [0,1].
	for _, v := range vs {
		for i, x := range n.Apply(v) {
			if x < 0 || x > 1 {
				t.Errorf("normalized component %d out of range: %v", i, x)
			}
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 2) != 2 || m.At(1, 1) != 3 {
		t.Fatalf("At/Set broken: %+v", m)
	}
	if !m.Row(0).Equal(Vector{1, 0, 2}) {
		t.Errorf("Row(0) = %v", m.Row(0))
	}
}

func TestMatrixInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(0, 3)
}

// Welford vs naive two-pass: results must agree on random data.
func TestStatsMatchTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := randomVectors(rng, 300, 5)
	s := ComputeStats(vs)
	for d := 0; d < 5; d++ {
		var mean float64
		for _, v := range vs {
			mean += v[d]
		}
		mean /= float64(len(vs))
		var varsum float64
		for _, v := range vs {
			varsum += (v[d] - mean) * (v[d] - mean)
		}
		variance := varsum / float64(len(vs))
		if !almostEqual(s.Mean[d], mean, 1e-9) {
			t.Errorf("mean[%d]: welford %v vs twopass %v", d, s.Mean[d], mean)
		}
		if !almostEqual(s.Variance[d], variance, 1e-9) {
			t.Errorf("var[%d]: welford %v vs twopass %v", d, s.Variance[d], variance)
		}
	}
}
