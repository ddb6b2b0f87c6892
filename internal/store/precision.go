package store

import "fmt"

// Precision tags the native component width of a FeatureStore — the width the
// corpus data arrived in and the one persistence round-trips losslessly.
// Float64 is the historical default (the synthetic extractor, archives v0–v2);
// Float32 marks imported embedding corpora (e.g. raw .fvecs files, or a
// float64 batch narrowed once at import).
//
// The tag is the corpus's one precision: unweighted searches over a Float32
// store score its rows with the float32 kernels, and over a Float64 store
// with the float64 kernels (behind SQ8 where it trains). Every store keeps a
// float64 backing as well: widening float32 to float64 is exact, so the tree
// geometry, representative selection and weighted searches operate on the
// same values at either tag. The tag also decides what persistence writes
// (archive v3 stores a Float32 corpus as raw float32, halving the archive).
type Precision uint8

const (
	// Float64 is the default precision: data is float64-native.
	Float64 Precision = iota
	// Float32 marks a float32-native store: the float32 backing is the
	// ground truth and the float64 backing is its exact widening.
	Float32
)

// String returns the precision's flag/CLI spelling ("f64" or "f32").
func (p Precision) String() string {
	switch p {
	case Float64:
		return "f64"
	case Float32:
		return "f32"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ParsePrecision parses the spellings String produces (plus the long forms
// "float64"/"float32").
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64", "":
		return Float64, nil
	case "f32", "float32":
		return Float32, nil
	default:
		return Float64, fmt.Errorf("store: unknown precision %q (want f64 or f32)", s)
	}
}
