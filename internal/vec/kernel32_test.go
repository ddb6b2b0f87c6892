package vec

import (
	"math"
	"math/rand"
	"testing"
)

func randFloats32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// referenceSqDist32 recomputes the canonical float32 accumulation order
// (8-lane prefix, fixed reduction, left-to-right tail) with an independent
// implementation: lane sums built by index arithmetic rather than unrolling.
func referenceSqDist32(q, v []float32) float32 {
	var lanes [8]float32
	pre := len(q) &^ 7
	for i := 0; i < pre; i++ {
		d := q[i] - v[i]
		lanes[i%8] += float32(d * d)
	}
	s04 := lanes[0] + lanes[4]
	s15 := lanes[1] + lanes[5]
	s26 := lanes[2] + lanes[6]
	s37 := lanes[3] + lanes[7]
	s := (s04 + s26) + (s15 + s37)
	for i := pre; i < len(q); i++ {
		d := q[i] - v[i]
		s += float32(d * d)
	}
	return s
}

// TestFloat32KernelsAgree: the batch kernel (accelerated when the CPU has
// one), the portable generic, SqL232, and the independent reference must all
// be bit-identical across dims exercising the SIMD body and the tails.
func TestFloat32KernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 37, 64, 100, 512} {
		q := randFloats32(rng, dim)
		rows := 17
		block := randFloats32(rng, rows*dim)
		out := make([]float32, rows)
		gen := make([]float32, rows)
		SquaredDistsTo32(q, block, out)
		float32SquaredDistsToGeneric(q, block, gen)
		for r := 0; r < rows; r++ {
			row := block[r*dim : (r+1)*dim]
			want := referenceSqDist32(q, row)
			if out[r] != want {
				t.Fatalf("dim %d row %d: batch %g (bits %#x), reference %g (bits %#x)",
					dim, r, out[r], math.Float32bits(out[r]), want, math.Float32bits(want))
			}
			if gen[r] != want {
				t.Fatalf("dim %d row %d: generic %g != reference %g", dim, r, gen[r], want)
			}
			if got := SqL232(q, row); got != want {
				t.Fatalf("dim %d row %d: SqL232 %g != reference %g", dim, r, got, want)
			}
		}
	}
}

// TestFloat32BatchVsGenericLarge drives the accelerated kernel (when present)
// against the portable loop over a large random corpus — the bit-exactness
// claim the float32 mode's cross-platform determinism rests on.
func TestFloat32BatchVsGenericLarge(t *testing.T) {
	if !HasAcceleratedFloat32Batch() {
		t.Skip("no accelerated float32 kernel on this platform/build")
	}
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{8, 23, 37, 96, 128, 384, 512} {
		rows := 257
		q := randFloats32(rng, dim)
		block := randFloats32(rng, rows*dim)
		acc := make([]float32, rows)
		gen := make([]float32, rows)
		float32BatchKernel(&q[0], dim, &block[0], &acc[0], rows)
		float32SquaredDistsToGeneric(q, block, gen)
		for r := range acc {
			if math.Float32bits(acc[r]) != math.Float32bits(gen[r]) {
				t.Fatalf("dim %d row %d: accelerated %#x != generic %#x",
					dim, r, math.Float32bits(acc[r]), math.Float32bits(gen[r]))
			}
		}
	}
}

// TestNarrowWidenRoundTrip: widening is exact, and narrowing a widened
// float32 backing restores it bit-for-bit — the property that lets an
// f32-primary store keep a float64 shadow without losing its identity.
func TestNarrowWidenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randFloats32(rng, 999)
	wide := Widen64(src, nil)
	back := Narrow32(wide, nil)
	for i := range src {
		if math.Float32bits(src[i]) != math.Float32bits(back[i]) {
			t.Fatalf("index %d: %#x -> %v -> %#x", i, math.Float32bits(src[i]), wide[i], math.Float32bits(back[i]))
		}
	}
}
