package store

import (
	"math"
	"math/rand"
	"testing"

	"qdcbir/internal/vec"
)

func randStore(rng *rand.Rand, n, dim int, scale float64) *FeatureStore {
	vs := make([]vec.Vector, n)
	for i := range vs {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64() * scale
		}
		vs[i] = v
	}
	return FromVectors(vs)
}

func decodeRow(q *Quantized, row int) vec.Vector {
	mins, _ := q.Bounds()
	codes := q.Row(row)
	out := make(vec.Vector, q.Dim())
	for i := range out {
		out[i] = mins[i] + float64(codes[i])*q.Delta()
	}
	return out
}

// TestQuantizeRoundTripBounds: on a clean corpus every stored value must
// decode back within delta/2 per component, and every row within DBErr.
func TestQuantizeRoundTripBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := randStore(rng, 200, 9, 12)
	q, err := Quantize(st)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	if !q.Clean() {
		t.Fatal("finite corpus reported unclean")
	}
	if q.Len() != 200 || q.Dim() != 9 {
		t.Fatalf("shape %dx%d, want 200x9", q.Len(), q.Dim())
	}
	half := q.Delta()/2 + 1e-12
	for r := 0; r < q.Len(); r++ {
		dec := decodeRow(q, r)
		var sq float64
		for i, v := range st.At(r) {
			d := math.Abs(v - dec[i])
			if d > half {
				t.Fatalf("row %d dim %d: decode error %g > delta/2 %g", r, i, d, half)
			}
			sq += (v - dec[i]) * (v - dec[i])
		}
		if math.Sqrt(sq) > q.DBErr()*(1+1e-12) {
			t.Fatalf("row %d: decode error %g exceeds DBErr %g", r, math.Sqrt(sq), q.DBErr())
		}
	}
}

// TestQuantizeSymmetricDistance: the design invariant the kernels rely on —
// the decoded squared distance between two rows equals delta² times the
// integer code distance, because per-dimension offsets cancel.
func TestQuantizeSymmetricDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st := randStore(rng, 50, 7, 3)
	q, _ := Quantize(st)
	for trial := 0; trial < 100; trial++ {
		a, b := rng.Intn(q.Len()), rng.Intn(q.Len())
		raw := vec.Uint8SquaredDist(q.Row(a), q.Row(b))
		got := q.DecodedDist(raw)
		want := math.Sqrt(vec.SqL2(decodeRow(q, a), decodeRow(q, b)))
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("rows %d,%d: DecodedDist %g, float decode distance %g", a, b, got, want)
		}
	}
}

// TestQuantizeNonFinite: NaN and ±Inf training values must mark the corpus
// unclean with an infinite DBErr (forcing exact fallback) without breaking
// encoding of the finite values.
func TestQuantizeNonFinite(t *testing.T) {
	vs := []vec.Vector{
		{1, math.NaN(), 3},
		{math.Inf(1), 2, 3},
		{0, 2, math.Inf(-1)},
		{4, 5, 6},
	}
	q, err := Quantize(FromVectors(vs))
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	if q.Clean() {
		t.Fatal("non-finite corpus reported clean")
	}
	if !math.IsInf(q.DBErr(), 1) {
		t.Fatalf("DBErr %g on unclean corpus, want +Inf", q.DBErr())
	}
	mins, maxs := q.Bounds()
	for i := range mins {
		if math.IsNaN(mins[i]) || math.IsInf(mins[i], 0) || math.IsNaN(maxs[i]) || math.IsInf(maxs[i], 0) {
			t.Fatalf("dim %d: non-finite bounds [%g, %g]", i, mins[i], maxs[i])
		}
	}
}

// TestQuantizeConstantCorpus: identical rows give delta == 0 and exact
// (zero-error) decoding.
func TestQuantizeConstantCorpus(t *testing.T) {
	vs := []vec.Vector{{3, -1, 7}, {3, -1, 7}, {3, -1, 7}}
	q, err := Quantize(FromVectors(vs))
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	if q.Delta() != 0 {
		t.Fatalf("delta %g on constant corpus", q.Delta())
	}
	if q.DBErr() != 0 {
		t.Fatalf("DBErr %g on constant corpus", q.DBErr())
	}
	for r := 0; r < q.Len(); r++ {
		if !decodeRow(q, r).Equal(vs[r]) {
			t.Fatalf("row %d: constant corpus decode diverges", r)
		}
	}
	codes, qErr := q.EncodeQuery(vec.Vector{3, -1, 7}, nil)
	if qErr != 0 {
		t.Fatalf("query on constant corpus decodes with error %g", qErr)
	}
	for _, c := range codes {
		if c != 0 {
			t.Fatal("constant corpus query encodes to non-zero code")
		}
	}
}

// TestEncodeQueryError: the returned error must be the exact decode error,
// including for out-of-range queries (clamping inflates it), and NaN queries
// must yield a NaN error.
func TestEncodeQueryError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := randStore(rng, 100, 5, 2)
	q, _ := Quantize(st)
	for trial := 0; trial < 50; trial++ {
		v := make(vec.Vector, 5)
		for j := range v {
			v[j] = rng.NormFloat64() * 20 // mostly outside the training range
		}
		codes, qErr := q.EncodeQuery(v, nil)
		mins, _ := q.Bounds()
		var sq float64
		for i := range v {
			d := v[i] - (mins[i] + float64(codes[i])*q.Delta())
			sq += d * d
		}
		if math.Abs(qErr-math.Sqrt(sq)) > 1e-12*(1+qErr) {
			t.Fatalf("EncodeQuery error %g, recomputed %g", qErr, math.Sqrt(sq))
		}
	}
	if _, qErr := q.EncodeQuery(vec.Vector{1, math.NaN(), 1, 1, 1}, nil); !math.IsNaN(qErr) {
		t.Fatalf("NaN query error %g, want NaN", qErr)
	}
}

// TestQuantPartsRoundTrip: Parts must reconstruct an equivalent quantizer,
// and FromQuantParts must reject corrupt shapes.
func TestQuantPartsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st := randStore(rng, 64, 6, 1)
	q, _ := Quantize(st)
	p := q.Parts()
	r, err := FromParts(p)
	if err != nil {
		t.Fatalf("from parts: %v", err)
	}
	if r.Delta() != q.Delta() || r.DBErr() != q.DBErr() || r.Clean() != q.Clean() {
		t.Fatal("reconstructed parameters diverge")
	}
	for i := range q.Codes() {
		if q.Codes()[i] != r.Codes()[i] {
			t.Fatalf("code %d diverges", i)
		}
	}

	bad := []QuantParts{
		{Dim: -1, Codes: []uint8{1}},
		{Dim: 3, Codes: make([]uint8, 7), Mins: make([]float64, 3), Maxs: make([]float64, 3)},
		{Dim: 3, Codes: make([]uint8, 6), Mins: make([]float64, 2), Maxs: make([]float64, 3)},
		{Dim: 2, Codes: make([]uint8, 4), Mins: []float64{1, 0}, Maxs: []float64{0, 1}},
		{Dim: 2, Codes: make([]uint8, 4), Mins: []float64{math.NaN(), 0}, Maxs: []float64{1, 1}},
		{Dim: MaxSQ8Dim + 1},
	}
	for i, p := range bad {
		if _, err := FromParts(p); err == nil {
			t.Errorf("corrupt parts %d accepted", i)
		}
	}
}

// TestQuantizeBytes: the codes table must be exactly one byte per component —
// the 8x reduction the memory benchmarks report.
func TestQuantizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := randStore(rng, 128, 37, 1)
	q, _ := Quantize(st)
	if q.Bytes() != 128*37 {
		t.Fatalf("codes table %d bytes, want %d", q.Bytes(), 128*37)
	}
	if ratio := float64(len(st.Backing())*8) / float64(q.Bytes()); ratio != 8 {
		t.Fatalf("memory ratio %g, want 8", ratio)
	}
}

// TestQuantizeShapeErrors: invalid shapes must be rejected at construction.
func TestQuantizeShapeErrors(t *testing.T) {
	if _, err := QuantizeBacking(3, make([]float64, 7)); err == nil {
		t.Error("ragged backing accepted")
	}
	if _, err := QuantizeBacking(MaxSQ8Dim+1, nil); err == nil {
		t.Error("over-limit dimensionality accepted")
	}
	if _, err := QuantizeBacking(0, make([]float64, 3)); err == nil {
		t.Error("zero dim with data accepted")
	}
	if q, err := QuantizeBacking(4, nil); err != nil || q.Len() != 0 {
		t.Errorf("empty corpus: %v, len %d", err, q.Len())
	}
}

// FuzzSQ8EncodeDecode fuzzes the encode/decode bounds: arbitrary float64
// training data (NaN, ±Inf, denormals, constant dimensions) must never
// panic, must produce in-range codes, and — when the corpus is clean — must
// honour the delta/2 per-component decode bound that the rerank guarantee
// rests on.
func FuzzSQ8EncodeDecode(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), false)
	f.Add(int64(2), uint8(1), uint8(1), true)
	f.Add(int64(3), uint8(7), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nRows, dim uint8, injectNonFinite bool) {
		n, d := int(nRows%32)+1, int(dim%16)+1
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, n*d)
		for i := range data {
			switch rng.Intn(12) {
			case 0:
				data[i] = 0
			case 1:
				data[i] = rng.NormFloat64() * 1e12
			case 2:
				data[i] = rng.NormFloat64() * 1e-12
			default:
				data[i] = rng.NormFloat64()
			}
		}
		if injectNonFinite {
			for i := 0; i < 3; i++ {
				switch j := rng.Intn(len(data)); rng.Intn(3) {
				case 0:
					data[j] = math.NaN()
				case 1:
					data[j] = math.Inf(1)
				default:
					data[j] = math.Inf(-1)
				}
			}
		}
		q, err := QuantizeBacking(d, data)
		if err != nil {
			t.Fatalf("quantize: %v", err)
		}
		if q.Len() != n {
			t.Fatalf("len %d, want %d", q.Len(), n)
		}
		clean := true
		for _, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				clean = false
				break
			}
		}
		if q.Clean() != clean {
			t.Fatalf("clean %v, data clean %v", q.Clean(), clean)
		}
		if !clean && !math.IsInf(q.DBErr(), 1) {
			t.Fatalf("unclean corpus DBErr %g, want +Inf", q.DBErr())
		}
		mins, _ := q.Bounds()
		for r := 0; r < n; r++ {
			codes := q.Row(r)
			for i, v := range data[r*d : (r+1)*d] {
				if !clean {
					continue
				}
				dec := mins[i] + float64(codes[i])*q.Delta()
				if err := math.Abs(v - dec); err > q.Delta()/2*(1+1e-9)+1e-300 {
					t.Fatalf("row %d dim %d: value %g decodes to %g (err %g > delta/2 %g)",
						r, i, v, dec, err, q.Delta()/2)
				}
			}
		}
		// Query encoding must be total for arbitrary vectors too.
		v := make(vec.Vector, d)
		for i := range v {
			v[i] = rng.NormFloat64() * 1e6
		}
		if _, qErr := q.EncodeQuery(v, nil); clean && (math.IsNaN(qErr) || qErr < 0) {
			t.Fatalf("finite query on clean corpus has error %g", qErr)
		}
	})
}

// checkSQ8Bracket states the theorem the SQ8 row filter rests on, for every
// row of data against the query v: the code distance lower-bounds the exact
// distance (LowerDist <= exact), and therefore a search whose pruning radius
// is that row's own kernel value — the tightest radius that must still keep
// it — never skips it (raw <= CodeRadius64).
func checkSQ8Bracket(t *testing.T, dim int, data []float64, v vec.Vector) {
	t.Helper()
	q, err := QuantizeBacking(dim, data)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	qc, qErr := q.EncodeQuery(v, nil)
	for r := 0; r < q.Len(); r++ {
		kernel := vec.SqL2(v, data[r*dim:(r+1)*dim])
		exact := math.Sqrt(kernel)
		raw := vec.Uint8SquaredDist(qc, q.Row(r))
		// Rounding in the three terms of LowerDist is relative to their own
		// magnitudes, not to their (possibly cancelling) difference.
		slack := 1e-12 * (q.DecodedDist(raw) + qErr + q.DBErr())
		if lower := q.LowerDist(raw, qErr); lower > exact+slack {
			t.Fatalf("row %d: LowerDist %g > exact distance %g (raw %d, qErr %g, DBErr %g, delta %g)",
				r, lower, exact, raw, qErr, q.DBErr(), q.Delta())
		}
		if limit := q.CodeRadius64(kernel, qErr); raw > limit {
			t.Fatalf("row %d at exact distance %g would be skipped: code distance %d > CodeRadius64 %d (qErr %g, DBErr %g, delta %g)",
				r, exact, raw, limit, qErr, q.DBErr(), q.Delta())
		}
	}
	kernel := make([]float64, q.Len())
	vec.SquaredDistsTo(v, data, kernel)
	checkKernelBracket(t, q, qc, kernel, func(kth float64) int32 { return q.CodeRadius64(kth, qErr) })
}

// checkKernelBracket states the theorem a linear sweep's filter rests on, over
// every pair of rows: with row a's kernel value as the radius, the code
// radius may skip row b only when b's kernel value is strictly greater — b is
// then neither in a top-k whose k-th row is a nor a tie at its boundary.
func checkKernelBracket[T float32 | float64](t *testing.T, q *Quantized, qc []uint8, kernel []T, radius func(kth T) int32) {
	t.Helper()
	raw := make([]int32, q.Len())
	vec.Uint8SquaredDistsTo(qc, q.Codes(), raw)
	for a, kth := range kernel {
		limit := radius(kth)
		for b, kb := range kernel {
			if raw[b] > limit && !(kb > kth) {
				t.Fatalf("row %d (kernel value %g, code distance %d) skipped under row %d's radius %g (code limit %d; DBErr %g, delta %g)",
					b, float64(kb), raw[b], a, float64(kth), limit, q.DBErr(), q.Delta())
			}
		}
	}
}

// checkSQ8Bracket32 is checkKernelBracket for the float32 kernel over float32
// rows, with the query narrowed and its decode error measured on that
// narrowing, as a float32 sweep does.
func checkSQ8Bracket32(t *testing.T, dim int, data []float32, v vec.Vector) {
	t.Helper()
	q, err := QuantizeBacking32(dim, data)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	q32 := vec.Narrow32(v, nil)
	qc, qErr := q.EncodeQuery(vec.Widen64(q32, nil), nil)
	kernel := make([]float32, q.Len())
	vec.SquaredDistsTo32(q32, data, kernel)
	checkKernelBracket(t, q, qc, kernel, func(kth float32) int32 { return q.CodeRadius32(kth, qErr) })
}

// bracketCorpus32 draws a float32 corpus: bracketCorpus's shapes narrowed, or
// components near float32's overflow (their differences overflow), subnormal
// components (their squares underflow), copies of three rows, and magnitudes
// from 1e-16 to 1e16 across dimensions.
func bracketCorpus32(rng *rand.Rand, n, dim, shape int) []float32 {
	if shape%8 < 4 {
		return vec.Narrow32(bracketCorpus(rng, n, dim, shape), nil)
	}
	data := make([]float32, n*dim)
	for i := range data {
		switch shape % 8 {
		case 4:
			data[i] = float32((2*rng.Float64() - 1) * 3e38)
		case 5:
			data[i] = float32(rng.NormFloat64() * 1e-42)
		case 6:
			if i < 3*dim {
				data[i] = float32(rng.NormFloat64())
			} else {
				data[i] = data[rng.Intn(3)*dim+i%dim]
			}
		default:
			data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(i%dim%9*4-16)))
		}
	}
	return data
}

// bracketQuery32 draws the query of a float32 sweep: bracketQuery's, one at
// a subnormal distance from a row, or one whose narrowing overflows to ±Inf.
func bracketQuery32(rng *rand.Rand, dim int, data []float32, where int) vec.Vector {
	switch where % 6 {
	case 4:
		v := vec.Widen64(data[rng.Intn(len(data)/dim)*dim:][:dim], nil)
		for i := range v {
			v[i] += rng.NormFloat64() * 1e-44
		}
		return v
	case 5:
		v := make(vec.Vector, dim)
		for i := range v {
			v[i] = rng.NormFloat64() * 1e39
		}
		return v
	}
	return bracketQuery(rng, dim, vec.Widen64(data, nil), where)
}

func TestSQ8Bracket32(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, dim := range []int{1, 7, 8, 9, 37, 512, 1023} {
		for shape := 0; shape < 8; shape++ {
			data := bracketCorpus32(rng, 24, dim, shape)
			for where := 0; where < 6; where++ {
				checkSQ8Bracket32(t, dim, data, bracketQuery32(rng, dim, data, where))
			}
		}
	}
}

// FuzzSQ8Bracket32 lets the fuzzer pick the float32 corpus shape, the
// dimensionality (1 to 1024, multiples of 8 or not) and where the query
// falls.
func FuzzSQ8Bracket32(f *testing.F) {
	f.Add(int64(1), uint16(511), uint8(0), uint8(0))
	f.Add(int64(2), uint16(36), uint8(4), uint8(5))
	f.Add(int64(3), uint16(8), uint8(5), uint8(4))
	f.Add(int64(4), uint16(1023), uint8(6), uint8(1))
	f.Add(int64(5), uint16(2), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, dim uint16, shape, where uint8) {
		d := 1 + int(dim)%1024
		rng := rand.New(rand.NewSource(seed))
		data := bracketCorpus32(rng, 1+rng.Intn(48), d, int(shape))
		checkSQ8Bracket32(t, d, data, bracketQuery32(rng, d, data, int(where)))
	})
}

// bracketCorpus draws a clean corpus in one of the shapes the bracket has to
// survive: Gaussian, one dimension setting the step for all the others, values
// sitting on code boundaries, and a constant corpus (delta == 0).
func bracketCorpus(rng *rand.Rand, n, dim, shape int) []float64 {
	data := make([]float64, n*dim)
	for i := range data {
		switch shape % 4 {
		case 0:
			data[i] = rng.NormFloat64() * 10
		case 1:
			if i%dim == 0 {
				data[i] = float64(rng.Intn(2)) * 1000
			} else {
				data[i] = rng.Float64() * 1e-3
			}
		case 2:
			data[i] = float64(rng.Intn(511)) / 2 // half-steps of a 0..255 range
		default:
			data[i] = 3.25
		}
	}
	return data
}

// bracketQuery draws a query at a corpus row, near one, inside the training
// range, or far outside it (where clamping inflates qErr).
func bracketQuery(rng *rand.Rand, dim int, data []float64, where int) vec.Vector {
	v := make(vec.Vector, dim)
	r := rng.Intn(len(data) / dim)
	copy(v, data[r*dim:(r+1)*dim])
	switch where % 4 {
	case 1:
		for i := range v {
			v[i] += rng.NormFloat64() * 0.01
		}
	case 2:
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
	case 3:
		for i := range v {
			v[i] = rng.NormFloat64() * 1e5
		}
	}
	return v
}

func TestSQ8Bracket(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dim := range []int{1, 2, 37, 128} {
		for shape := 0; shape < 4; shape++ {
			data := bracketCorpus(rng, 300, dim, shape)
			for where := 0; where < 8; where++ {
				checkSQ8Bracket(t, dim, data, bracketQuery(rng, dim, data, where))
			}
		}
	}
	// What the filter does with a bound that bounds nothing: skip no row.
	data := bracketCorpus(rng, 50, 3, 0)
	clean, _ := QuantizeBacking(3, data)
	if got := clean.CodeRadius64(math.Inf(1), 0.1); got != math.MaxInt32 {
		t.Errorf("CodeRadius64(+Inf) = %d, want MaxInt32", got)
	}
	if got := clean.CodeRadius32(float32(math.Inf(1)), 0.1); got != math.MaxInt32 {
		t.Errorf("CodeRadius32(+Inf) = %d, want MaxInt32", got)
	}
	if got := clean.CodeRadius64(1, math.NaN()); got != math.MaxInt32 {
		t.Errorf("CodeRadius64 with a NaN query error = %d, want MaxInt32", got)
	}
	data[4] = math.Inf(1)
	unclean, _ := QuantizeBacking(3, data)
	if got := unclean.CodeRadius64(1, 0.1); got != math.MaxInt32 {
		t.Errorf("CodeRadius64 on an unclean corpus = %d, want MaxInt32", got)
	}
	constant, _ := QuantizeBacking(3, bracketCorpus(rng, 50, 3, 3))
	if got := constant.CodeRadius64(0, 0); got != math.MaxInt32 {
		t.Errorf("CodeRadius64 on a constant corpus = %d, want MaxInt32", got)
	}
}

// FuzzSQ8Bracket lets the fuzzer pick the corpus shape, the dimensionality
// and where the query falls.
func FuzzSQ8Bracket(f *testing.F) {
	f.Add(int64(1), uint8(37), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1), uint8(3))
	f.Add(int64(3), uint8(5), uint8(2), uint8(1))
	f.Add(int64(4), uint8(9), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, dim, shape, where uint8) {
		d := 1 + int(dim)%64
		rng := rand.New(rand.NewSource(seed))
		data := bracketCorpus(rng, 1+rng.Intn(64), d, int(shape))
		checkSQ8Bracket(t, d, data, bracketQuery(rng, d, data, int(where)))
	})
}
