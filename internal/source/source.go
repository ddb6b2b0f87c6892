// Package source defines the vector-ingestion seam of the engine: a
// VectorSource yields a row-major batch of equal-dimension vectors, and
// everything above it (store, RFS structure, query engine) is agnostic to
// where those vectors came from. The built-in synthetic extractor pipeline is
// one implementation (FromCorpus); external embedding files — JSON lines,
// CSV, and raw little-endian .fvecs — are another (File and the Read*
// functions in import.go).
//
// Importers validate while reading: non-finite components, dimension
// mismatches, and empty rows are rejected with errors naming the offending
// row and column (both 1-based), mirroring the unclean-corpus routing the
// SQ8 quantizer applies to generated features.
package source

import (
	"fmt"
	"math"

	"qdcbir/internal/dataset"
	"qdcbir/internal/store"
	"qdcbir/internal/vec"
)

// Batch is a dense row-major vector set: N rows of Dim components in exactly
// one of the two backings. Data32 is the native backing of float32 sources
// (.fvecs); Data is the backing of everything else. Labels, when present,
// carries one ground-truth label per row ("category" or
// "category/subconcept").
type Batch struct {
	Dim    int
	Data   []float64 // row-major; nil when Data32 is set
	Data32 []float32 // row-major native float32 rows; nil when Data is set
	Labels []string  // optional; len 0 or Len()
}

// Len returns the number of rows.
func (b *Batch) Len() int {
	if b.Dim <= 0 {
		return 0
	}
	if b.Data32 != nil {
		return len(b.Data32) / b.Dim
	}
	return len(b.Data) / b.Dim
}

// Validate checks a batch assembled outside the importers against the same
// contract the importers enforce row by row: a positive dimension, exactly
// one backing whose length is a whole number of rows, finite components, and
// a label count of zero or Len().
func (b *Batch) Validate() error {
	if b.Dim <= 0 {
		return fmt.Errorf("source: invalid dimension %d", b.Dim)
	}
	if (b.Data == nil) == (b.Data32 == nil) {
		return fmt.Errorf("source: batch needs exactly one backing (float64 set: %t, float32 set: %t)",
			b.Data != nil, b.Data32 != nil)
	}
	var n int
	if b.Data32 != nil {
		if len(b.Data32)%b.Dim != 0 {
			return fmt.Errorf("source: float32 backing length %d not a multiple of dimension %d", len(b.Data32), b.Dim)
		}
		n = len(b.Data32) / b.Dim
		for i, v := range b.Data32 {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("source: row %d, column %d: non-finite value %v", i/b.Dim+1, i%b.Dim+1, v)
			}
		}
	} else {
		if len(b.Data)%b.Dim != 0 {
			return fmt.Errorf("source: backing length %d not a multiple of dimension %d", len(b.Data), b.Dim)
		}
		n = len(b.Data) / b.Dim
		for i, v := range b.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("source: row %d, column %d: non-finite value %v", i/b.Dim+1, i%b.Dim+1, v)
			}
		}
	}
	if len(b.Labels) != 0 && len(b.Labels) != n {
		return fmt.Errorf("source: %d labels for %d rows", len(b.Labels), n)
	}
	return nil
}

// Infos derives per-row ground truth from the batch labels. A label of the
// form "category/subconcept" is used as-is; a bare "category" label maps to
// the subconcept "category/all"; an unlabeled batch puts every row in one
// synthetic subconcept, which keeps the corpus valid (sessions and searches
// work) while making ground-truth metrics vacuous.
func (b *Batch) Infos() []dataset.Info {
	n := b.Len()
	infos := make([]dataset.Info, n)
	for i := range infos {
		cat, sub := "imported", dataset.Key("imported", "all")
		if len(b.Labels) == n && b.Labels[i] != "" {
			cat, sub = splitLabel(b.Labels[i])
		}
		infos[i] = dataset.Info{ID: i, Category: cat, Subconcept: sub}
	}
	return infos
}

// splitLabel maps a row label onto the corpus's (category, subconcept key)
// pair.
func splitLabel(label string) (category, subconcept string) {
	for i := 0; i < len(label); i++ {
		if label[i] == '/' {
			return label[:i], label
		}
	}
	return label, dataset.Key(label, "all")
}

// VectorSource yields a complete vector set. Implementations load eagerly —
// the corpus, the store, and the RFS structure are all built over the full
// set anyway — and must return only batches that pass (*Batch).Validate.
type VectorSource interface {
	// Format identifies the source kind ("jsonl", "csv", "fvecs", "corpus").
	Format() string
	// Vectors loads the whole set as one batch.
	Vectors() (*Batch, error)
}

// corpusSource adapts an already-built corpus — in particular the synthetic
// extractor pipeline of internal/dataset — to the VectorSource interface.
type corpusSource struct{ c *dataset.Corpus }

// FromCorpus wraps a built corpus as a VectorSource: the batch aliases the
// corpus store's backing (callers must not mutate it) and carries the
// ground-truth subconcept keys as labels, so a system built from this source
// answers queries over exactly the generated geometry.
func FromCorpus(c *dataset.Corpus) VectorSource { return corpusSource{c} }

func (corpusSource) Format() string { return "corpus" }

func (s corpusSource) Vectors() (*Batch, error) {
	st := s.c.Store()
	b := &Batch{Dim: st.Dim(), Data: st.Backing()}
	if n := s.c.Len(); n > 0 {
		b.Labels = make([]string, n)
		for i := range b.Labels {
			b.Labels[i] = s.c.SubconceptOf(i)
		}
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// AtPrecision wraps src so that its batch arrives at prec, the precision a
// corpus built from it is stored and searched at: a float64 batch is
// narrowed to float32 (one rounding per component), a float32 batch widened
// to float64 (exact). A batch already at prec passes through untouched.
func AtPrecision(src VectorSource, prec store.Precision) VectorSource {
	return atPrecision{src, prec}
}

type atPrecision struct {
	VectorSource
	prec store.Precision
}

func (a atPrecision) Vectors() (*Batch, error) {
	b, err := a.VectorSource.Vectors()
	switch {
	case err != nil:
		return nil, err
	case a.prec == store.Float32 && b.Data32 == nil:
		return &Batch{Dim: b.Dim, Data32: vec.Narrow32(b.Data, nil), Labels: b.Labels}, nil
	case a.prec == store.Float64 && b.Data == nil:
		return &Batch{Dim: b.Dim, Data: vec.Widen64(b.Data32, nil), Labels: b.Labels}, nil
	}
	return b, nil
}
