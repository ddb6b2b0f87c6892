package vec

import (
	"math"
	"math/rand"
	"sort"
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
	if got := Uint8SquaredDistCapped(q, v, math.MaxInt32); got != want {
		t.Fatalf("capped max distance %d, want %d", got, want)
	}
}

// TestUint8SquaredDistCappedContract: for any limit, (result < limit) must
// agree with (full distance < limit), and a below-limit result must equal the
// full distance exactly — the same contract SquaredDistCapped documents.
func TestUint8SquaredDistCappedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		dim := rng.Intn(40)
		q, v := randCodes(rng, dim), randCodes(rng, dim)
		full := naiveUint8SqDist(q, v)
		var limit int32
		switch trial % 4 {
		case 0:
			limit = full // boundary: equal is not below
		case 1:
			limit = full + 1
		case 2:
			limit = full / 2
		default:
			limit = int32(rng.Intn(65025*40 + 1))
		}
		r := Uint8SquaredDistCapped(q, v, limit)
		if (r < limit) != (full < limit) {
			t.Fatalf("dim %d limit %d: capped %d, full %d — below-limit verdicts disagree",
				dim, limit, r, full)
		}
		if r < limit && r != full {
			t.Fatalf("dim %d limit %d: admitted value %d != full %d", dim, limit, r, full)
		}
	}
}

// TestQuantTopKMatchesSort: the selector must retain the k smallest distance
// VALUES (ties at the boundary may retain any of the equal candidates — the
// rerank guarantee only needs every non-retained candidate to sit at or above
// the final threshold), with AppendIDs in ascending (dist, id) order.
func TestQuantTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		k := rng.Intn(20)
		dists := make([]int32, n) // indexed by candidate id
		sel := NewQuantTopK(k)
		for i := range dists {
			dists[i] = int32(rng.Intn(8)) // small range forces ties
			if dists[i] >= sel.Threshold() {
				continue // mimic the capped-kernel reject path
			}
			sel.Add(dists[i], i)
		}
		sorted := append([]int32(nil), dists...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		want := sorted
		if len(want) > k {
			want = want[:k]
		}
		got := sel.AppendIDs(nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d retained, want %d", trial, len(got), len(want))
		}
		threshold := sel.Threshold()
		retained := make(map[int]bool, len(got))
		for i, id := range got {
			if dists[id] != want[i] {
				t.Fatalf("trial %d pos %d: id %d has dist %d, want value %d",
					trial, i, id, dists[id], want[i])
			}
			if i > 0 {
				prev := got[i-1]
				if dists[prev] > dists[id] || (dists[prev] == dists[id] && prev >= id) {
					t.Fatalf("trial %d: AppendIDs order violated at pos %d", trial, i)
				}
			}
			retained[id] = true
		}
		if len(got) == k {
			for id, d := range dists {
				if !retained[id] && d < threshold {
					t.Fatalf("trial %d: excluded id %d has dist %d below threshold %d",
						trial, id, d, threshold)
				}
			}
		}
	}
}

// TestQuantTopKThresholdMonotone: thresholds must never increase once the
// selector is full — the property the rerank guarantee's excluded-point bound
// depends on.
// TestQuantTopKDrainMatchesReferenceSort pins AppendIDs at the sizes the
// two-phase search drains: a first rerank's few hundred candidates and a
// widened one's whole scanned range. Distances repeat heavily, so the id
// tie-break decides most of the order.
func TestQuantTopKDrainMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{1, 200, 8192} {
		for _, n := range []int{m, 3 * m} { // everything retained; a third retained
			type pair struct {
				dist int32
				id   int
			}
			all := make([]pair, n)
			sel := NewQuantTopK(m)
			for i := range all {
				all[i] = pair{dist: int32(rng.Intn(64)), id: i}
				if all[i].dist < sel.Threshold() {
					sel.Add(all[i].dist, i)
				}
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].dist != all[j].dist {
					return all[i].dist < all[j].dist
				}
				return all[i].id < all[j].id
			})
			got := sel.AppendIDs([]int{-1})
			if len(got) != m+1 || got[0] != -1 {
				t.Fatalf("m=%d n=%d: AppendIDs returned %d ids after the caller's one", m, n, len(got)-1)
			}
			// Which of the candidates tied at the admission bound were kept
			// is the selector's business; everywhere else the order is total.
			bound := all[m-1].dist
			for i, id := range got[1:] {
				if want := all[i]; (n == m || want.dist < bound) && id != want.id {
					t.Fatalf("m=%d n=%d pos %d: id %d, reference sort says %d (dist %d)", m, n, i, id, want.id, want.dist)
				}
			}
		}
	}
}

func TestQuantTopKThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sel := NewQuantTopK(8)
	prev := sel.Threshold()
	if prev != math.MaxInt32 {
		t.Fatalf("initial threshold %d, want MaxInt32", prev)
	}
	full := false
	for i := 0; i < 500; i++ {
		d := int32(rng.Intn(1 << 20))
		if d < sel.Threshold() {
			sel.Add(d, i)
		}
		th := sel.Threshold()
		if full && th > prev {
			t.Fatalf("step %d: threshold rose %d -> %d", i, prev, th)
		}
		full = sel.Len() == 8
		prev = th
	}
	sel.Reset(3)
	if sel.Len() != 0 || sel.Threshold() != math.MaxInt32 {
		t.Fatal("Reset did not restore the empty state")
	}
}

// TestQuantTopKDegenerate: k <= 0 selects nothing and never panics.
func TestQuantTopKDegenerate(t *testing.T) {
	for _, k := range []int{0, -3} {
		sel := NewQuantTopK(k)
		sel.Add(5, 1)
		sel.Add(0, 2)
		if sel.Len() != 0 || len(sel.AppendIDs(nil)) != 0 {
			t.Fatalf("k=%d retained candidates", k)
		}
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
