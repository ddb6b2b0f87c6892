package vec

import "fmt"

// Stats holds per-dimension summary statistics over a set of vectors. It is
// the basis for corpus normalization and for variance-weighted distances used
// by the Query Point Movement baseline.
type Stats struct {
	N        int    // number of vectors observed
	Mean     Vector // per-dimension mean
	Variance Vector // per-dimension population variance
	Min      Vector // per-dimension minimum
	Max      Vector // per-dimension maximum
}

// ComputeStats scans vs once (Welford's algorithm) and returns their
// per-dimension statistics. It panics on an empty input.
func ComputeStats(vs []Vector) *Stats {
	if len(vs) == 0 {
		panic("vec: ComputeStats of empty set")
	}
	dim := len(vs[0])
	s := &Stats{
		N:        len(vs),
		Mean:     make(Vector, dim),
		Variance: make(Vector, dim),
		Min:      vs[0].Clone(),
		Max:      vs[0].Clone(),
	}
	m2 := make(Vector, dim)
	for n, v := range vs {
		mustSameDim(s.Mean, v)
		for i, x := range v {
			delta := x - s.Mean[i]
			s.Mean[i] += delta / float64(n+1)
			m2[i] += float64(delta * (x - s.Mean[i]))
			if x < s.Min[i] {
				s.Min[i] = x
			}
			if x > s.Max[i] {
				s.Max[i] = x
			}
		}
	}
	for i := range m2 {
		s.Variance[i] = m2[i] / float64(len(vs))
	}
	return s
}

// InverseVariance returns per-dimension weights 1/(variance_i + eps). The eps
// guard keeps constant dimensions from producing infinite weights; MindReader-
// style feedback uses these as the diagonal of its distance metric.
func (s *Stats) InverseVariance(eps float64) Vector {
	w := make(Vector, len(s.Variance))
	for i, v := range s.Variance {
		w[i] = 1 / (v + eps)
	}
	return w
}

// Normalizer rescales vectors into a canonical range so that no feature
// family (colour vs texture vs edge) dominates Euclidean distances merely by
// having larger raw magnitudes.
type Normalizer interface {
	// Apply returns the normalized copy of v.
	Apply(v Vector) Vector
	// Dim returns the dimensionality the normalizer was fitted on.
	Dim() int
}

// MinMaxNormalizer maps each dimension affinely onto [0, 1] using the fitted
// min and max. Dimensions that were constant in the fitting corpus map to 0.
type MinMaxNormalizer struct {
	Min, Max Vector
}

// FitMinMax fits a MinMaxNormalizer on vs.
func FitMinMax(vs []Vector) *MinMaxNormalizer {
	st := ComputeStats(vs)
	return &MinMaxNormalizer{Min: st.Min, Max: st.Max}
}

// Dim returns the fitted dimensionality.
func (n *MinMaxNormalizer) Dim() int { return len(n.Min) }

// Apply maps v into the unit hypercube.
func (n *MinMaxNormalizer) Apply(v Vector) Vector {
	mustSameDim(v, n.Min)
	out := make(Vector, len(v))
	for i, x := range v {
		r := n.Max[i] - n.Min[i]
		if r == 0 {
			out[i] = 0
			continue
		}
		out[i] = (x - n.Min[i]) / r
	}
	return out
}

// Matrix is a small dense row-major matrix used by the PCA substrate.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("vec: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a Vector sharing the matrix backing array.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }
