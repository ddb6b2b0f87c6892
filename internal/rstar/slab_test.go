package rstar

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qdcbir/internal/bitset"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// slabHit is one row of a slab search's answer: its selection ID and the
// squared distance it was selected by.
type slabHit struct {
	id     int
	distSq float64
}

// FuzzSlabSweep checks Slab.Search against brute force. From seed it draws
// 1 to 3,000 rows of 1 to 24 dimensions (on a coarse grid when coarse is
// set, so distances tie) and, by the bits of mode: float32 rows, SQ8 codes
// trained over them, weights, selection IDs from a shuffled table instead
// of Base+row, a NaN row (which leaves the quantizer unclean, so no codes)
// and a NaN query. A Skip bit per row comes from skipBits (rows past its end
// are kept); the range [lo,hi) and k (0 to past the range) from seed. The
// answer must be the k smallest (kernel value, selection ID) pairs among the
// range's unskipped rows whose value is not NaN, in that order, bit for bit
// — a NaN query's answer is empty — and a search that read codes must have
// read each of the range's rows once.
func FuzzSlabSweep(f *testing.F) {
	f.Add(int64(1), uint16(2500), uint8(7), uint8(2), uint16(10), false, []byte{0x01, 0x80})
	f.Add(int64(2), uint16(1200), uint8(23), uint8(3), uint16(3), true, []byte{0xff, 0x0f, 0x33})
	f.Add(int64(3), uint16(400), uint8(3), uint8(6), uint16(40), false, []byte{})
	f.Add(int64(4), uint16(90), uint8(12), uint8(9), uint16(5), true, []byte{0x55, 0xaa, 0x55})
	f.Add(int64(5), uint16(300), uint8(5), uint8(16|2), uint16(7), false, []byte{0x02})
	f.Add(int64(6), uint16(300), uint8(5), uint8(32|3), uint16(7), false, []byte{})
	f.Add(int64(7), uint16(2999), uint8(1), uint8(11), uint16(1), true, []byte{0x10, 0x20})
	f.Fuzz(func(t *testing.T, seed int64, nSel uint16, dimSel, mode uint8, kSel uint16, coarse bool, skipBits []byte) {
		rng := rand.New(rand.NewSource(seed))
		n, dim := 1+int(nSel)%3000, 1+int(dimSel)%24
		f32, codes, weighted, shuffled, nanRow, nanQuery := mode&1 != 0, mode&2 != 0, mode&4 != 0, mode&8 != 0, mode&16 != 0, mode&32 != 0
		centers := randPoints(rng, 1+rng.Intn(8), dim, 10)
		rows := make([]float64, 0, n*dim)
		for i := 0; i < n; i++ {
			c := centers[rng.Intn(len(centers))]
			for _, x := range c {
				v := x + rng.NormFloat64()
				if coarse {
					v = math.Round(v)
				}
				rows = append(rows, float64(float32(v)))
			}
		}
		if nanRow {
			rows[rng.Intn(n)*dim+rng.Intn(dim)] = math.NaN()
		}
		s := &Slab{Dim: dim, Base: rng.Intn(1000)}
		if f32 {
			s.F32 = vec.Narrow32(rows, nil)
		} else {
			s.F64 = rows
		}
		if shuffled {
			s.IDs = rng.Perm(n + 5)[:n]
		}
		if codes {
			var qz *store.Quantized
			var err error
			if f32 {
				qz, err = store.QuantizeBacking32(dim, s.F32)
			} else {
				qz, err = store.QuantizeBacking(dim, s.F64)
			}
			if err != nil {
				t.Fatal(err)
			}
			if qz.Clean() && qz.Delta() > 0 {
				s.Codes, s.Quant = qz.Codes(), qz
			}
		}
		var weights vec.Vector
		if weighted {
			weights = make(vec.Vector, dim)
			for j := range weights {
				weights[j] = float64(rng.Intn(4))
			}
		}
		var skip *bitset.Set
		if len(skipBits) > 0 {
			skip = bitset.New(n)
			for row := 0; row < n && row/8 < len(skipBits); row++ {
				if skipBits[row/8]>>(row%8)&1 != 0 {
					skip.Set(row)
				}
			}
		}
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		k := int(kSel) % (hi - lo + 3)
		q := make(vec.Vector, dim)
		copy(q, rows[rng.Intn(n)*dim:])
		for j := range q {
			if !coarse {
				q[j] += 0.1 * rng.NormFloat64()
			}
		}
		if nanQuery {
			q[rng.Intn(dim)] = math.NaN()
		}

		var got []slabHit
		var st SearchStats
		err := s.Search(context.Background(), lo, hi, weights, Query{Q: q, K: k, Skip: skip, Stats: &st}, func(id int, distSq float64) {
			got = append(got, slabHit{id, distSq})
		})
		if err != nil {
			t.Fatal(err)
		}

		q32 := vec.Narrow32(q, nil)
		var want []slabHit
		for row := lo; row < hi; row++ {
			if skip.Get(row) {
				continue
			}
			p := vec.Vector(rows[row*dim : (row+1)*dim])
			var d float64
			switch {
			case weighted:
				d = vec.WeightedSqL2(q, p, weights)
			case f32:
				d = float64(vec.SqL232(q32, s.F32[row*dim:(row+1)*dim]))
			default:
				d = vec.SqL2(q, p)
			}
			if !math.IsNaN(d) {
				want = append(want, slabHit{int(s.id(row)), d})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].distSq != want[j].distSq {
				return want[i].distSq < want[j].distSq
			}
			return want[i].id < want[j].id
		})
		want = want[:min(max(k, 0), len(want))]
		if len(got) != len(want) {
			t.Fatalf("%d rows answered, brute force %d (k %d over [%d,%d), %+v)", len(got), len(want), k, lo, hi, st)
		}
		for i := range want {
			if got[i].id != want[i].id || math.Float64bits(got[i].distSq) != math.Float64bits(want[i].distSq) {
				t.Fatalf("rank %d: %+v, brute force %+v", i, got[i], want[i])
			}
		}
		filtered := s.Codes != nil && weights == nil && !nanQuery && k > 0 && hi-lo > FilterRowsPerResult*k
		if (st.CodesScanned > 0) != filtered || (filtered && st.CodesScanned != uint64(hi-lo)) {
			t.Fatalf("read %d code rows of [%d,%d) at k %d (codes %v, weighted %v)", st.CodesScanned, lo, hi, k, s.Codes != nil, weighted)
		}
	})
}
