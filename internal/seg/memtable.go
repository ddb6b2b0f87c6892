package seg

import (
	"qdcbir/internal/bitset"
	"qdcbir/internal/rstar"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// memtable is the mutable tail of the corpus: rows land here on Insert and
// stay until sealed into an immutable segment. It is owned by the DB writer
// lock; readers never touch it directly — they see a memView captured at
// snapshot-publish time.
//
// Global IDs in the memtable are consecutive: row at slot i has global ID
// baseID+i, because IDs are allocated monotonically and every seal starts a
// fresh memtable. That keeps the reader-side mapping arithmetic-only.
//
// Rows are stored once, at the DB's precision: in data for a Float64 DB, in
// data32 (narrowed at insert) for a Float32 one.
//
// Race-freedom without copying: Insert appends to the row array and only
// then publishes a new snapshot whose memView holds the NEW slice header and
// row count. A reader working from an older memView sees the old header and
// the old row count, and never indexes past rows*dim, so even when append
// grows in place the writer only writes beyond every published reader's
// range. When append reallocates, old readers keep the old array entirely.
// Either way reader and writer memory never overlap, which `go test -race`
// verifies in race_test.go.
type memtable struct {
	memView
}

func newMemtable(dim int, prec store.Precision, baseID int) *memtable {
	return &memtable{memView{dim: dim, prec: prec, baseID: baseID}}
}

// add appends v (copying it, narrowed in a Float32 DB) and returns the new
// row's global ID.
func (m *memtable) add(v vec.Vector) int {
	if m.prec == store.Float32 {
		for _, x := range v {
			m.data32 = append(m.data32, float32(x))
		}
	} else {
		m.data = append(m.data, v...)
	}
	id := m.baseID + m.rows
	m.rows++
	return id
}

// view captures the memtable's current published state: slice headers and
// the row count, plus the tombstone set (copy-on-write — deletes clone it).
func (m *memtable) view() memView { return m.memView }

// memView is the reader-side, immutable capture of a memtable prefix.
type memView struct {
	dim    int
	prec   store.Precision
	baseID int
	rows   int
	data   []float64 // rows*dim, row-major (Float64 DB)
	data32 []float32 // rows*dim, row-major (Float32 DB)
	tomb   *bitset.Set
	nTomb  int
}

// live reports the number of non-tombstoned rows in the view.
func (v memView) live() int { return v.rows - v.nTomb }

// row returns the float64 vector of slot i: a view of the memtable backing
// in a Float64 DB, which callers must not mutate, or the exact widening of
// the stored row in a Float32 one.
func (v memView) row(i int) vec.Vector {
	if v.prec == store.Float32 {
		return vec.Widen64(v.data32[i*v.dim:(i+1)*v.dim], nil)
	}
	return vec.Vector(v.data[i*v.dim : (i+1)*v.dim])
}

// slab returns the view's rows as a search sweeps them, slot i under global
// ID baseID+i; a Skip set over them is indexed by slot, as tomb is.
func (v memView) slab() rstar.Slab {
	n := v.rows * v.dim
	if v.prec == store.Float32 {
		return rstar.Slab{Dim: v.dim, F32: v.data32[:n:n], Base: v.baseID}
	}
	return rstar.Slab{Dim: v.dim, F64: v.data[:n:n], Base: v.baseID}
}

// store adopts the view's rows as a store at its precision. The writer only
// appends past them, so they do not change under it.
func (v memView) store() (*store.FeatureStore, error) {
	n := v.rows * v.dim
	if v.prec == store.Float32 {
		return store.FromBacking32(v.dim, v.data32[:n:n])
	}
	return store.FromBacking(v.dim, v.data[:n:n])
}
