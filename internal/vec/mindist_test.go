package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// minDistSqLoop is the comparing loop MinDistSq replaced, kept as the
// reference its bit-identity is stated against. A nil weights is the plain
// metric.
func minDistSqLoop(q, weights, min, max Vector) float64 {
	var s float64
	for i := range q {
		var d float64
		if q[i] < min[i] {
			d = min[i] - q[i]
		} else if q[i] > max[i] {
			d = q[i] - max[i]
		}
		if weights != nil {
			s += weights[i] * d * d
		} else {
			s += d * d
		}
	}
	return s
}

// sameFloat reports whether a and b are the same value bit for bit. Two NaNs
// count as the same: which operand's payload a NaN sum carries is the
// instruction selector's choice, not something either loop specifies.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkMinDistSq compares both kernels with the reference on one input.
func checkMinDistSq(t *testing.T, q, weights, min, max Vector) {
	t.Helper()
	if got, want := MinDistSq(q, min, max), minDistSqLoop(q, nil, min, max); !sameFloat(got, want) {
		t.Fatalf("MinDistSq(%v, %v, %v) = %v (%#x), loop %v (%#x)",
			q, min, max, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := WeightedMinDistSq(q, weights, min, max), minDistSqLoop(q, weights, min, max); !sameFloat(got, want) {
		t.Fatalf("WeightedMinDistSq(%v, %v, %v, %v) = %v (%#x), loop %v (%#x)",
			q, weights, min, max, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// minDistSpecials are the coordinates where a clamp written with arithmetic
// could part from one written with comparisons: signed zeros, the extremes of
// the finite range (whose differences overflow), subnormals (whose differences
// must not flush to zero), infinities (Inf − Inf is NaN) and NaNs of both
// signs.
var minDistSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 3,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000000001),
}

// TestMinDistSqMatchesLoop: the branch-free kernels return the comparing
// loop's bits on every combination of special coordinates — degenerate and
// inverted rectangles among them, zero and special weights included — and on
// random rectangles of the dimensionalities the system indexes.
func TestMinDistSqMatchesLoop(t *testing.T) {
	for _, q := range minDistSpecials {
		for _, lo := range minDistSpecials {
			for _, hi := range minDistSpecials {
				for _, w := range []float64{0, 1, 2.5, math.Inf(1), math.NaN()} {
					// A second, ordinary dimension after the special one: the
					// accumulator has to carry a NaN or an Inf forward as the
					// loop does.
					checkMinDistSq(t, Vector{q, 1}, Vector{w, 0.5}, Vector{lo, 2}, Vector{hi, 3})
					checkMinDistSq(t, Vector{7, q}, Vector{1, w}, Vector{2, lo}, Vector{3, hi})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{0, 1, 2, 37, 512} {
		for trial := 0; trial < 200; trial++ {
			q, w, lo, hi := make(Vector, dim), make(Vector, dim), make(Vector, dim), make(Vector, dim)
			for i := range q {
				q[i] = rng.NormFloat64()
				c, half := rng.NormFloat64(), rng.Float64()
				lo[i], hi[i] = c-half, c+half
				switch trial % 4 {
				case 1:
					hi[i] = lo[i] // degenerate
				case 2:
					lo[i], hi[i] = hi[i], lo[i] // inverted
				}
				w[i] = []float64{0, 1, rng.Float64() * 4}[rng.Intn(3)]
			}
			checkMinDistSq(t, q, w, lo, hi)
		}
	}
}

// FuzzMinDistSq drives the same comparison from raw bit patterns, so the
// fuzzer reaches every float64 — payload NaNs, subnormals — not just the
// values a generator thinks of.
func FuzzMinDistSq(f *testing.F) {
	for _, s := range minDistSpecials {
		b := math.Float64bits(s)
		f.Add(b, math.Float64bits(1), math.Float64bits(2), math.Float64bits(1), b, b, b, b)
		f.Add(math.Float64bits(-3), b, math.Float64bits(4), b, math.Float64bits(9), b, math.Float64bits(-9), math.Float64bits(0))
	}
	// Two NaNs of different payloads meeting in the sum: NaN·Inf, then 0·Inf.
	inf := math.Float64bits(math.Inf(1))
	f.Add(math.Float64bits(-3), inf, math.Float64bits(4), uint64(0x7ff0000000000035), math.Float64bits(9), inf, math.Float64bits(-9), uint64(0))
	f.Fuzz(func(t *testing.T, q0, lo0, hi0, w0, q1, lo1, hi1, w1 uint64) {
		fb := math.Float64frombits
		checkMinDistSq(t, Vector{fb(q0), fb(q1)}, Vector{fb(w0), fb(w1)}, Vector{fb(lo0), fb(lo1)}, Vector{fb(hi0), fb(hi1)})
	})
}

func BenchmarkMinDistSq(b *testing.B) {
	for _, dim := range []int{37, 512} {
		rng := rand.New(rand.NewSource(1))
		const rects = 320
		q := make(Vector, dim)
		lo, hi := make([]Vector, rects), make([]Vector, rects)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for r := range lo {
			lo[r], hi[r] = make(Vector, dim), make(Vector, dim)
			for i := range q {
				c, half := rng.NormFloat64(), rng.Float64()
				lo[r][i], hi[r][i] = c-half, c+half
			}
		}
		for _, fn := range []struct {
			name string
			f    func(q, min, max Vector) float64
		}{
			{"clamp", MinDistSq},
			{"loop", func(q, min, max Vector) float64 { return minDistSqLoop(q, nil, min, max) }},
		} {
			b.Run(fmt.Sprintf("%s/d=%d", fn.name, dim), func(b *testing.B) {
				var s float64
				for i := 0; i < b.N; i++ {
					s += fn.f(q, lo[i%rects], hi[i%rects])
				}
				_ = s
			})
		}
	}
}
