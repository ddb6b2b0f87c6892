package store

import (
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/vec"
)

func randBacking32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// TestFromBacking32RoundTrip: a float32-native store must expose the exact
// values through both backings — the float64 view widened exactly, and the
// float32 view aliasing the adopted array bit-for-bit.
func TestFromBacking32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const dim, n = 7, 31
	data := randBacking32(rng, dim*n)
	st, err := FromBacking32(dim, data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Precision() != Float32 {
		t.Fatalf("precision %v, want Float32", st.Precision())
	}
	if st.Len() != n || st.Dim() != dim {
		t.Fatalf("shape %dx%d, want %dx%d", st.Len(), st.Dim(), n, dim)
	}
	for id := 0; id < n; id++ {
		row64 := st.At(id)
		row32 := st.At32(id)
		for i := 0; i < dim; i++ {
			want := data[id*dim+i]
			if math.Float32bits(row32[i]) != math.Float32bits(want) {
				t.Fatalf("row %d[%d]: f32 backing %v != source %v", id, i, row32[i], want)
			}
			if row64[i] != float64(want) {
				t.Fatalf("row %d[%d]: widened %v != %v", id, i, row64[i], float64(want))
			}
		}
	}
	// Narrowing the widened backing restores the original bits.
	back := vec.Narrow32(st.Backing(), nil)
	for i := range data {
		if math.Float32bits(back[i]) != math.Float32bits(data[i]) {
			t.Fatalf("narrow(widen) changed bits at %d", i)
		}
	}
}

// TestFromBacking32Validation mirrors FromBacking's shape checks.
func TestFromBacking32Validation(t *testing.T) {
	if _, err := FromBacking32(3, make([]float32, 7)); err == nil {
		t.Fatal("accepted backing not a multiple of dim")
	}
	if _, err := FromBacking32(0, make([]float32, 2)); err == nil {
		t.Fatal("accepted dim 0 with values")
	}
	st, err := FromBacking32(0, nil)
	if err != nil || st.Len() != 0 {
		t.Fatalf("empty store: %v len %d", err, st.Len())
	}
	if st.Precision() != Float32 {
		t.Fatalf("empty f32 store precision %v", st.Precision())
	}
}

// TestMaterializeFloat32: a Float64 store narrows on demand (cached), while a
// Float32 store returns its native array without copying.
func TestMaterializeFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const dim, n = 5, 11
	data64 := make([]float64, dim*n)
	for i := range data64 {
		data64[i] = rng.NormFloat64()
	}
	st64, err := FromBacking(dim, data64)
	if err != nil {
		t.Fatal(err)
	}
	if st64.Backing32() != nil {
		t.Fatal("f64 store has an f32 backing before materialization")
	}
	f32 := st64.MaterializeFloat32()
	for i, v := range data64 {
		if f32[i] != float32(v) {
			t.Fatalf("narrowed[%d] %v != float32(%v)", i, f32[i], v)
		}
	}
	if again := st64.MaterializeFloat32(); &again[0] != &f32[0] {
		t.Fatal("materialization not cached")
	}

	data32 := randBacking32(rng, dim*n)
	st32, err := FromBacking32(dim, data32)
	if err != nil {
		t.Fatal(err)
	}
	if got := st32.MaterializeFloat32(); &got[0] != &data32[0] {
		t.Fatal("f32 store materialization copied its native backing")
	}
	if b := st32.Block32(2, 5); len(b) != 3*dim || &b[0] != &data32[2*dim] {
		t.Fatal("Block32 does not alias the native backing")
	}
}

// TestQuantizeBacking32MatchesWidened: SQ8 training from float32 data must be
// bit-identical to training from its exact float64 widening (the "training
// from either" contract) — codes, bounds, step and Clean — over Gaussian,
// subnormal, near-overflow and non-finite corpora, and Quantize over an
// f32-primary store must match both.
func TestQuantizeBacking32MatchesWidened(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim, n = 9, 64
	for shape := 0; shape < 4; shape++ {
		data := randBacking32(rng, dim*n)
		for i := range data {
			switch shape {
			case 1:
				data[i] *= 1e-40
			case 2:
				data[i] *= 1e38
			case 3:
				if i%50 == 7 {
					data[i] = float32(math.Inf(1 - 2*(i%2)))
				}
			}
		}
		qz32, err := QuantizeBacking32(dim, data)
		if err != nil {
			t.Fatal(err)
		}
		qz64, err := QuantizeBacking(dim, vec.Widen64(data, nil))
		if err != nil {
			t.Fatal(err)
		}
		st, err := FromBacking32(dim, data)
		if err != nil {
			t.Fatal(err)
		}
		qzStore, err := Quantize(st)
		if err != nil {
			t.Fatal(err)
		}
		for name, qz := range map[string]*Quantized{"widened": qz64, "store": qzStore} {
			if qz.Delta() != qz32.Delta() || qz.Clean() != qz32.Clean() || qz.DBErr() != qz32.DBErr() {
				t.Fatalf("shape %d %s: delta %v clean %v DBErr %v, float32 training %v %v %v",
					shape, name, qz.Delta(), qz.Clean(), qz.DBErr(), qz32.Delta(), qz32.Clean(), qz32.DBErr())
			}
			mins, maxs := qz.Bounds()
			mins32, maxs32 := qz32.Bounds()
			for i := range mins {
				if math.Float64bits(mins[i]) != math.Float64bits(mins32[i]) || math.Float64bits(maxs[i]) != math.Float64bits(maxs32[i]) {
					t.Fatalf("shape %d %s: bounds differ at dim %d", shape, name, i)
				}
			}
			a, b := qz.Codes(), qz32.Codes()
			if len(a) != len(b) {
				t.Fatalf("shape %d %s: code lengths differ", shape, name)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("shape %d %s: codes differ at %d: %d != %d", shape, name, i, a[i], b[i])
				}
			}
		}
	}
}

// TestQuantizeBacking32Unclean: non-finite float32 components must set the
// clean flag false, exactly like the float64 path.
func TestQuantizeBacking32Unclean(t *testing.T) {
	data := []float32{1, 2, float32(math.NaN()), 4, 5, 6}
	qz, err := QuantizeBacking32(3, data)
	if err != nil {
		t.Fatal(err)
	}
	if qz.Clean() {
		t.Fatal("NaN corpus reported clean")
	}
	if !math.IsInf(qz.DBErr(), 1) {
		t.Fatalf("unclean DBErr %v, want +Inf", qz.DBErr())
	}
}
