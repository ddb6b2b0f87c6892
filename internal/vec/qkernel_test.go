package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randCodes(rng *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(256))
	}
	return out
}

func naiveUint8SqDist(q, v []uint8) int32 {
	var s int32
	for i := range q {
		d := int32(q[i]) - int32(v[i])
		s += d * d
	}
	return s
}

// TestUint8KernelsAgree: block kernel, scalar kernel, and naive loop must be
// exactly equal (integer arithmetic — no tolerance) across dims that exercise
// both the unrolled body and the tails.
func TestUint8KernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 37, 64, 100} {
		q := randCodes(rng, dim)
		rows := 17
		block := randCodes(rng, rows*dim)
		out := make([]int32, rows)
		Uint8SquaredDistsTo(q, block, out)
		for r := 0; r < rows; r++ {
			row := block[r*dim : (r+1)*dim]
			want := naiveUint8SqDist(q, row)
			if out[r] != want {
				t.Fatalf("dim %d row %d: block %d, naive %d", dim, r, out[r], want)
			}
			if got := Uint8SquaredDist(q, row); got != want {
				t.Fatalf("dim %d row %d: scalar %d, naive %d", dim, r, got, want)
			}
		}
	}
}

// TestUint8KernelMaxDistance: the extreme corpus (all-0 vs all-255 codes at
// the dimensionality limit) must not overflow int32.
func TestUint8KernelMaxDistance(t *testing.T) {
	const dim = math.MaxInt32 / (255 * 255) // maxSQ8Dim in package store
	q := make([]uint8, dim)
	v := make([]uint8, dim)
	for i := range v {
		v[i] = 255
	}
	want := int32(dim) * 255 * 255
	if got := Uint8SquaredDist(q, v); got != want {
		t.Fatalf("max distance %d, want %d", got, want)
	}
}

// TestUint8BatchKernelAcceleratedAgrees pins the platform-accelerated batch
// kernel (when one is installed) against the portable Go loop, bit for bit,
// across dims straddling the 16-code SIMD chunk and rows straddling the
// dispatch boundary. On platforms without an accelerated kernel the test
// still exercises the generic pair.
func TestUint8BatchKernelAcceleratedAgrees(t *testing.T) {
	if uint8BatchKernel == nil {
		t.Log("no accelerated batch kernel on this platform; generic only")
	}
	rng := rand.New(rand.NewSource(7))
	check := func(dim, rows int) {
		t.Helper()
		q := randCodes(rng, dim)
		block := randCodes(rng, rows*dim)
		got := make([]int32, rows)
		want := make([]int32, rows)
		Uint8SquaredDistsTo(q, block, got)
		uint8SquaredDistsToGeneric(q, block, want)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("dim %d rows %d row %d: dispatch %d, generic %d",
					dim, rows, r, got[r], want[r])
			}
		}
	}
	// Every tail length the masked last chunk can see, on the first eight
	// chunk counts, for row counts on both sides of every loop edge.
	for dim := 16; dim <= 130; dim++ {
		for rows := 1; rows <= 9; rows++ {
			check(dim, rows)
		}
	}
	for _, dim := range []int{16, 17, 23, 31, 32, 33, 37, 48, 63, 64, 100, 129} {
		for _, rows := range []int{1, 2, 3, 7, 16, 65} {
			q := randCodes(rng, dim)
			block := randCodes(rng, rows*dim)
			got := make([]int32, rows)
			want := make([]int32, rows)
			Uint8SquaredDistsTo(q, block, got)
			uint8SquaredDistsToGeneric(q, block, want)
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("dim %d rows %d row %d: dispatch %d, generic %d",
						dim, rows, r, got[r], want[r])
				}
			}
		}
	}
	// Worst-case magnitudes through the SIMD path: all-zero query against
	// all-255 rows must hit exactly rows x dim x 255^2 with no lane overflow.
	const dim, rows = 37, 9
	q := make([]uint8, dim)
	block := make([]uint8, rows*dim)
	for i := range block {
		block[i] = 255
	}
	out := make([]int32, rows)
	Uint8SquaredDistsTo(q, block, out)
	for r, d := range out {
		if want := int32(dim) * 255 * 255; d != want {
			t.Fatalf("max-distance row %d: got %d, want %d", r, d, want)
		}
	}
}

// BenchmarkUint8SquaredDistsTo scores one leaf's code rows: 93 rows (a
// capacity-100 leaf at its 93 % target fill) of 37 codes, a dim whose five
// codes past the 32-code prefix are the masked last chunk's.
func BenchmarkUint8SquaredDistsTo(b *testing.B) {
	for _, shape := range []struct{ rows, dim int }{{93, 37}, {93, 32}, {93, 64}} {
		b.Run(fmt.Sprintf("%dx%d", shape.rows, shape.dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			q := randCodes(rng, shape.dim)
			block := randCodes(rng, shape.rows*shape.dim)
			out := make([]int32, shape.rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Uint8SquaredDistsTo(q, block, out)
			}
		})
	}
}
