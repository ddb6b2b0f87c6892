// Package store provides the FeatureStore: an immutable, contiguous
// column-store for a corpus's feature vectors. All vectors of one
// representation (the main 37-d features, or one MV colour channel) live in a
// single dimension-strided []float64 backing array in image-ID order, and
// every vec.Vector the store hands out is a zero-copy view into that array.
//
// The layout buys the retrieval hot loops three things: sequential scans walk
// one cache-friendly allocation instead of pointer-chasing per-vector heap
// objects; batch kernels (vec.SquaredDistsTo and friends) score whole row
// ranges per call; and persistence serializes the backing array directly
// instead of gob-encoding n separate slices.
//
// Aliasing rules: the store owns its backing array and never mutates it after
// construction. Views returned by At/Views share that memory — callers must
// treat them as read-only and must Clone before mutating. Code that needs a
// growable vector set (rfs dynamic inserts) starts from Views() and appends
// owned clones beyond the store's rows.
package store

import (
	"fmt"

	"qdcbir/internal/vec"
)

// FeatureStore owns n dimension-strided feature vectors in one contiguous
// backing array. The zero value is an empty store; construct with
// FromVectors, FromBacking, or FromBacking32. A FeatureStore is immutable
// after construction and safe for unsynchronized concurrent reads.
//
// Precision: data is always populated — it is the ground truth of a Float64
// store and the exact widening of a Float32 store's data32 — so every float64
// consumer (tree build, batch kernels, golden paths) works identically on
// either tag. data32 is the native backing of a Float32 store and nil for a
// Float64 store: a corpus has one precision, fixed when it is imported.
type FeatureStore struct {
	dim    int
	n      int
	prec   Precision
	data   []float64
	data32 []float32
}

// FromVectors copies the given vectors into a new store. All vectors must
// share one dimension; index i in vs becomes row (image ID) i.
func FromVectors(vs []vec.Vector) *FeatureStore {
	if len(vs) == 0 {
		return &FeatureStore{}
	}
	dim := len(vs[0])
	data := make([]float64, len(vs)*dim)
	for i, v := range vs {
		if len(v) != dim {
			panic(fmt.Sprintf("store: vector %d has dim %d, want %d", i, len(v), dim))
		}
		copy(data[i*dim:(i+1)*dim], v)
	}
	return &FeatureStore{dim: dim, n: len(vs), data: data}
}

// FromBacking adopts an existing dimension-strided backing array without
// copying; the caller must not retain or mutate data afterwards. len(data)
// must be a multiple of dim. Persistence uses this to reconstruct stores
// straight from decoded archives.
func FromBacking(dim int, data []float64) (*FeatureStore, error) {
	if dim <= 0 {
		if len(data) != 0 {
			return nil, fmt.Errorf("store: dim %d with %d values", dim, len(data))
		}
		return &FeatureStore{}, nil
	}
	if len(data)%dim != 0 {
		return nil, fmt.Errorf("store: backing length %d not a multiple of dim %d", len(data), dim)
	}
	return &FeatureStore{dim: dim, n: len(data) / dim, data: data}, nil
}

// FromBacking32 adopts a float32-native dimension-strided backing array (an
// imported embedding corpus) without copying it; the caller must not retain
// or mutate data afterwards. The float64 shadow backing is widened here once
// — an exact conversion — so every float64 consumer sees the same values.
// len(data) must be a multiple of dim.
func FromBacking32(dim int, data []float32) (*FeatureStore, error) {
	if dim <= 0 {
		if len(data) != 0 {
			return nil, fmt.Errorf("store: dim %d with %d values", dim, len(data))
		}
		return &FeatureStore{prec: Float32}, nil
	}
	if len(data)%dim != 0 {
		return nil, fmt.Errorf("store: backing length %d not a multiple of dim %d", len(data), dim)
	}
	return &FeatureStore{
		dim:    dim,
		n:      len(data) / dim,
		prec:   Float32,
		data:   vec.Widen64(data, nil),
		data32: data,
	}, nil
}

// Precision returns the store's native precision tag.
func (s *FeatureStore) Precision() Precision { return s.prec }

// Len returns the number of vectors stored.
func (s *FeatureStore) Len() int { return s.n }

// Dim returns the vector dimensionality (0 for an empty store).
func (s *FeatureStore) Dim() int { return s.dim }

// At returns a zero-copy read-only view of row id. The three-index slice
// caps the view at the row boundary, so even an append by a misbehaving
// caller cannot bleed into the next row.
func (s *FeatureStore) At(id int) vec.Vector {
	base := id * s.dim
	return vec.Vector(s.data[base : base+s.dim : base+s.dim])
}

// Views returns all rows as zero-copy views, indexed by image ID. The slice
// of headers is freshly allocated (callers may append owned vectors to it);
// the underlying float data is shared with the store.
func (s *FeatureStore) Views() []vec.Vector {
	out := make([]vec.Vector, s.n)
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Block returns the contiguous backing of rows [lo, hi) — hi-lo rows of Dim
// components — suitable for vec.SquaredDistsTo.
func (s *FeatureStore) Block(lo, hi int) []float64 {
	return s.data[lo*s.dim : hi*s.dim : hi*s.dim]
}

// Backing returns the store's whole backing array. It is shared, not copied:
// callers must treat it as read-only. Persistence serializes this directly.
func (s *FeatureStore) Backing() []float64 { return s.data }

// SquaredDistsTo scores rows [lo, hi) against q into out (which must have
// hi-lo entries), preserving the scalar accumulation order exactly.
func (s *FeatureStore) SquaredDistsTo(q vec.Vector, lo, hi int, out []float64) {
	vec.SquaredDistsTo(q, s.Block(lo, hi), out)
}

// Backing32 returns the native backing array of a Float32 store, or nil for
// a Float64 store. It is shared, not copied: callers must treat it as
// read-only.
func (s *FeatureStore) Backing32() []float32 { return s.data32 }
