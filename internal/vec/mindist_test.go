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

// packChildren lays rectangles [lo[c], hi[c]] out dimension-major, the box
// MinDistSqChildren reads.
func packChildren(lo, hi []Vector, dim int) []float64 {
	n := len(lo)
	box := make([]float64, 2*n*dim)
	for c := range lo {
		for d := 0; d < dim; d++ {
			box[2*n*d+c] = lo[c][d]
			box[2*n*d+n+c] = hi[c][d]
		}
	}
	return box
}

// checkChildren bounds the rectangles [lo[c], hi[c]] with MinDistSqChildren
// and with its portable body, plain and weighted, and requires every lane to
// be the bits MinDistSq (WeightedMinDistSq) gives that rectangle alone.
func checkChildren(t *testing.T, q, weights Vector, lo, hi []Vector) {
	t.Helper()
	box := packChildren(lo, hi, len(q))
	n := len(lo)
	out := make([]float64, n+1)
	for _, w := range []Vector{nil, weights} {
		for _, body := range []struct {
			name string
			f    func()
		}{
			{"dispatch", func() { MinDistSqChildren(q, w, box, n, out) }},
			{"portable", func() { minDistSqChildrenGeneric(q, w, box, out[:n]) }},
		} {
			out[n] = 42 // beyond the lanes: must stay untouched
			body.f()
			for c := 0; c < n; c++ {
				want := MinDistSq(q, lo[c], hi[c])
				if w != nil {
					want = WeightedMinDistSq(q, w, lo[c], hi[c])
				}
				if !sameFloat(out[c], want) {
					t.Fatalf("%s, weighted=%v, %d children, dim %d: lane %d = %v (%#x), alone %v (%#x); q %v w %v rect [%v, %v]",
						body.name, w != nil, n, len(q), c, out[c], math.Float64bits(out[c]),
						want, math.Float64bits(want), q, w, lo[c], hi[c])
				}
			}
			if out[n] != 42 {
				t.Fatalf("%s: %d children wrote lane %d", body.name, n, n)
			}
		}
	}
}

// TestMinDistSqChildrenMatchesLoop: every lane of the one-pass children bound
// is the bits of MinDistSq on that child alone — over every special-value
// rectangle, packed into passes of every width so each group tail is taken,
// and over random rectangles at the system's dimensionalities.
func TestMinDistSqChildrenMatchesLoop(t *testing.T) {
	var lo, hi []Vector
	for _, l := range minDistSpecials {
		for _, h := range minDistSpecials {
			lo = append(lo, Vector{l, 2}, Vector{2, l})
			hi = append(hi, Vector{h, 3}, Vector{3, h})
		}
	}
	for _, q := range minDistSpecials {
		for _, w := range []float64{0, 1, 2.5, math.Inf(1), math.NaN()} {
			for _, qv := range []Vector{{q, 1}, {7, q}} {
				weights := Vector{w, 0.5}
				if qv[0] == 7 {
					weights = Vector{1, w}
				}
				for at, n := 0, 1; at < len(lo); at, n = at+n, n%21+1 {
					end := at + n
					if end > len(lo) {
						end = len(lo)
					}
					checkChildren(t, qv, weights, lo[at:end], hi[at:end])
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(6))
	for _, dim := range []int{1, 2, 37, 512} {
		for _, n := range []int{1, 3, 4, 5, 8, 15, 16, 17, 20, 31, 90} {
			q, w := make(Vector, dim), make(Vector, dim)
			lo, hi := make([]Vector, n), make([]Vector, n)
			for i := range q {
				q[i] = rng.NormFloat64()
				w[i] = []float64{0, 1, rng.Float64() * 4}[rng.Intn(3)]
			}
			for c := range lo {
				lo[c], hi[c] = make(Vector, dim), make(Vector, dim)
				for i := range q {
					m, half := rng.NormFloat64(), rng.Float64()
					lo[c][i], hi[c][i] = m-half, m+half
					switch c % 4 {
					case 1:
						hi[c][i] = lo[c][i] // degenerate
					case 2:
						lo[c][i], hi[c][i] = hi[c][i], lo[c][i] // inverted
					}
				}
			}
			checkChildren(t, q, w, lo, hi)
		}
	}
}

// FuzzMinDistSqChildren drives the lane comparison from raw bit patterns: a
// query, weights and 1–40 rectangles of 1–64 dimensions, every coordinate an
// arbitrary float64.
func FuzzMinDistSqChildren(f *testing.F) {
	word := func(b []byte, i int) float64 {
		var u uint64
		for j := 0; j < 8; j++ {
			u = u<<8 | uint64(b[(i*8+j)%len(b)])
		}
		return math.Float64frombits(u)
	}
	for _, s := range minDistSpecials {
		b := make([]byte, 8*5)
		for i, v := range []float64{s, 1, -s, s, 2} {
			u := math.Float64bits(v)
			for j := 0; j < 8; j++ {
				b[i*8+j] = byte(u >> (56 - 8*j))
			}
		}
		f.Add(b, uint8(5), uint8(1), true)
		f.Add(b, uint8(17), uint8(3), false)
	}
	f.Add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0x35, 0xc0, 0x08}, uint8(39), uint8(63), true)
	f.Fuzz(func(t *testing.T, raw []byte, n, dim uint8, weighted bool) {
		if len(raw) == 0 {
			raw = []byte{0}
		}
		c, d := int(n)%40+1, int(dim)%64+1
		q, w := make(Vector, d), make(Vector, d)
		lo, hi := make([]Vector, c), make([]Vector, c)
		k := 0
		for i := range q {
			q[i], w[i] = word(raw, k), word(raw, k+1)
			k += 2
		}
		for r := range lo {
			lo[r], hi[r] = make(Vector, d), make(Vector, d)
			for i := range q {
				lo[r][i], hi[r][i] = word(raw, k), word(raw, k+1)
				k += 2
			}
		}
		if !weighted {
			w = nil
		}
		checkChildren(t, q, w, lo, hi)
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
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dim), "ns/element")
			})
		}
	}
	// lanes bounds one node's children per call: 8 is the 50k tree's root,
	// 90 its internal fan-out.
	for _, shape := range []struct{ dim, children int }{{37, 8}, {37, 90}, {512, 16}} {
		rng := rand.New(rand.NewSource(1))
		dim, n := shape.dim, shape.children
		q := make(Vector, dim)
		lo, hi := make([]Vector, n), make([]Vector, n)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for c := range lo {
			lo[c], hi[c] = make(Vector, dim), make(Vector, dim)
			for i := range q {
				m, half := rng.NormFloat64(), rng.Float64()
				lo[c][i], hi[c][i] = m-half, m+half
			}
		}
		box, out := packChildren(lo, hi, dim), make([]float64, n)
		b.Run(fmt.Sprintf("lanes/d=%d/children=%d", dim, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MinDistSqChildren(q, nil, box, n, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*dim), "ns/element")
		})
	}
}
