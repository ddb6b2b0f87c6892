package rstar

// This file holds the slab: rows a k-NN search scores where they lie. A
// tree's leaves are row ranges of its slab, a shard replica's subtrees are
// row ranges of its own, and a segmented engine's memtable is one; all of
// them are scored by the descent's leaf scorers (descent.go) into its one
// selector. The descent scores a popped leaf's rows [qlo, qhi); Search and a
// KNNForest slab root sweep a flat range of rows a chunk at a time.

import (
	"context"
	"math"
	"slices"

	"qdcbir/internal/bitset"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Slab is rows at one precision, row-major: F64 for float64 rows or F32 for
// float32 rows, exactly one of them set. Row i is returned under selection
// ID IDs[i], or Base+i when IDs is nil. Codes, when set, are the rows' SQ8
// code rows, row for row, encoded by Quant: unweighted searches filter
// through them (quant.go's bracket; at float32, store.Quantized.CodeRadius32
// over the float32 kernel). A Skip set over a slab's rows is indexed by row.
//
// Float32 rows score with the float32 kernel on the query's narrowing, as a
// float32 tree's mirror does; weighted searches score every row in float64,
// float32 rows widened exactly. At either precision a row whose value is NaN
// is never taken.
type Slab struct {
	Dim   int
	F64   []float64
	F32   []float32
	IDs   []int
	Base  int
	Codes []uint8
	Quant *store.Quantized
}

// Len returns the slab's row count; a nil slab has none.
func (s *Slab) Len() int {
	if s == nil || s.Dim == 0 {
		return 0
	}
	return (len(s.F64) + len(s.F32)) / s.Dim
}

// id returns the selection ID of row.
func (s *Slab) id(row int) ItemID {
	if s.IDs != nil {
		return ItemID(s.IDs[row])
	}
	return ItemID(s.Base + row)
}

// metric returns the leaf scorer a search of the slab runs under weights:
// the SQ8 filter serves unweighted searches of a slab holding codes.
func (s *Slab) metric(weights vec.Vector) metric {
	m := metric{weights: weights, s: *s}
	if weights == nil && s.Codes != nil {
		m.quant = s.Quant
	}
	return m
}

// sweepChunk is the row count of one kernel call, and of one context poll,
// over a flat range.
const sweepChunk = 1024

// FilterRowsPerResult is how many rows per wanted result a flat range needs
// before Search filters it through its SQ8 codes; a tree leaf is filtered
// whatever its size. The filter reads every code row and scores at least k
// rows exactly, and over rows already in cache a 512-d code row costs about
// two thirds of a float32 row (50 against 77 ns), so it wins only where it
// skips most of the range. On BenchmarkShardLeg's clustered shard, legs on
// cache-hot leaves broke even at 8 to 16 rows per result and ran 1.5× faster
// at 32; a root leg, 130 rows per result, runs 1.6–2× faster.
const FilterRowsPerResult = 8

// Search answers q over the slab's rows [lo,hi): the q.K nearest rows
// outside q.Skip under (squared distance, selection ID), passed to yield in
// that order with the squared distance they were selected by — the float32
// kernel's value, widened, for float32 rows under nil weights. Non-nil
// weights must be non-negative and score every row in float64. Over more
// than FilterRowsPerResult·q.K rows a query with a finite SQ8 decode error
// is filtered: the q.K rows nearest by code are scored first, which fixes a
// radius, then every other row the bracket cannot place beyond it. The
// answer is the plain sweep's either way. q.Stats gets the rows scored
// (ItemsScored) and the code rows read (CodesScanned); q.Q must hold Dim
// values, and q.Acc sees nothing, since no node is read. The search polls
// ctx between chunks.
func (s *Slab) Search(ctx context.Context, lo, hi int, weights vec.Vector, q Query, yield func(id int, distSq float64)) error {
	if q.K <= 0 || lo >= hi {
		return nil
	}
	roots := [1]root{{m: s.metric(weights), skip: q.Skip}}
	f := forest{roots: roots[:], dim: s.Dim, f32: roots[0].m.f32()}
	sc := descentPool.Get().(*descentScratch)
	defer descentPool.Put(sc)
	d := f.begin(sc, q)
	if err := f.sweep(ctx, sc, d, 0, lo, hi, q); err != nil {
		return err
	}
	d.fold(q.Stats)
	for _, e := range d.sel.sorted() {
		yield(int(e.item.ID), e.distSq)
	}
	return nil
}

// sweep scores root t's slab rows [lo,hi), a flat range: through the SQ8
// filter when the range holds over FilterRowsPerResult rows per wanted
// result and the query has a code row there, else a chunk at a time with
// the exact kernel.
func (f *forest) sweep(ctx context.Context, sc *descentScratch, d *descent, t, lo, hi int, q Query) error {
	r := &f.roots[t]
	if r.m.quant != nil && hi-lo > FilterRowsPerResult*q.K && d.encode(f, sc, t, q) {
		return f.filter(ctx, sc, d, t, lo, hi, q.Q)
	}
	// Widened float32 rows go through the float64 kernel in blocks small
	// enough that the buffer stays near 128 KB however wide the rows are.
	step := sweepChunk
	if r.m.s.F64 == nil && !r.m.f32() {
		step = max(1, min(sweepChunk, (16<<10)/r.m.s.Dim))
	}
	for base := lo; base < hi; base += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		f.exact(sc, d, t, base, min(base+step, hi), nil, q.Q)
	}
	return nil
}

// filter is the SQ8-filtered sweep of root t's rows [lo,hi), the query's
// code row in place: every code distance of the range, then the k rows
// nearest by code (passing over skipped rows) scored exactly in row order,
// runs of adjacent rows together — they fill the selector and so fix a
// finite radius — and then takeCodes over the rest of the range, a chunk at
// a time.
func (f *forest) filter(ctx context.Context, sc *descentScratch, d *descent, t, lo, hi int, q vec.Vector) error {
	s, ts := &f.roots[t].m.s, &d.trees[t]
	dim := s.Dim
	raw := grown(sc.raw, hi-lo)
	sc.raw = raw
	for base := lo; base < hi; base += sweepChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+sweepChunk, hi)
		vec.Uint8SquaredDistsTo(ts.code, s.Codes[base*dim:end*dim], raw[base-lo:end-lo])
	}
	seeds := nearestCodes(raw, d.sel.k, ts.skip, lo, sc.seeds[:0])
	for i := range seeds {
		seeds[i] &= math.MaxUint32 // the row
	}
	slices.Sort(seeds)
	sc.seeds = seeds
	for a := 0; a < len(seeds); {
		b := a + 1
		for b < len(seeds) && seeds[b] == seeds[b-1]+1 {
			b++
		}
		first, end := int(seeds[a]), int(seeds[b-1])+1
		f.exact(sc, d, t, lo+first, lo+end, nil, q)
		for i := first; i < end; i++ {
			raw[i] = -1 // scored: as a uint32 it exceeds every code limit
		}
		a = b
	}
	for base := lo; base < hi; base += sweepChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(base+sweepChunk, hi)
		d.takeCodes(f, t, base, nil, q, raw[base-lo:end-lo])
	}
	return nil
}

// nearestCodes appends to keys the k smallest (code distance, i) pairs of
// raw (all distances non-negative) whose row lo+i is not in skip, packed
// distance<<32 | i so that one integer comparison orders them, kept as a
// bounded max-heap: a fifth the bytes of a selector entry to move.
func nearestCodes(raw []int32, k int, skip *bitset.Set, lo int, keys []uint64) []uint64 {
	for i, c := range raw {
		key := uint64(c)<<32 | uint64(i)
		if len(keys) == k && key >= keys[0] || skip.Get(lo+i) {
			continue
		}
		x := len(keys)
		if x < k {
			keys = append(keys, key)
			for x > 0 && keys[(x-1)/2] < keys[x] {
				p := (x - 1) / 2
				keys[p], keys[x] = keys[x], keys[p]
				x = p
			}
			continue
		}
		keys[0] = key
		for x = 0; ; {
			big := x
			if l := 2*x + 1; l < k && keys[l] > keys[big] {
				big = l
			}
			if r := 2*x + 2; r < k && keys[r] > keys[big] {
				big = r
			}
			if big == x {
				break
			}
			keys[x], keys[big] = keys[big], keys[x]
			x = big
		}
	}
	return keys
}
