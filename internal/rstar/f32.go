package rstar

// This file holds the tree's float32 state: a float32 mirror of the leaf
// slab, narrowed once, from which the one best-first descent (descent.go)
// scores the leaves of every unweighted search once it is installed. Unlike
// the SQ8 row filter (quant.go), which only decides which rows the descent
// scores in float64 and so returns the exact search's bits, float32 is a
// DISTINCT documented result mode: an answer is the k smallest (float32
// kernel value, ItemID) pairs among the subtree's rows whose value is not
// NaN, each reported at the float64 square root of its value. Rankings can
// therefore differ from the float64 path wherever float32 rounding collapses
// or reorders close distances. What the mode does guarantee is platform
// determinism: the kernel's accumulation order is canonical (see
// vec/kernel32.go) and bit-identical between the portable loop and the AVX2
// implementation, so results are identical with and without acceleration,
// across architectures, and under the noasm build tag — and they do not
// depend on the search order, only on the kernel.
//
// The stop rule. Nodes keep their float64 MINDIST keys, so they pop in the
// float64 descent's order; the radius r is the float32 kernel value of the
// k-th row held. The descent ends at the first key above stop32(r), because:
//
// Theorem. Let q be a query, q32 its narrowing, p a row inside the rectangle
// R whose components are float32 values (the mirror p32 is then p exactly),
// and K = SqL232(q32, p32). If the float64 MinDistSq(q, R) exceeds
//
//	S(r) = (√((r + dim·η)(1+2γ)) + ‖q − q32‖)² · (1 + 1e-9)
//
// then K > r or K is NaN: no row of R can be taken. Here γ and η are the
// float32 kernel's rounding terms from store.Quantized.CodeRadius32's proof
// (γ = (⌊dim/8⌋ + 3 + dim mod 8 + 3)·2⁻²⁴, η = 2⁻¹⁴⁹).
//
// Proof. A row with a non-finite component has K = +Inf or NaN against every
// query: one of its terms is +Inf or NaN and none is negative. For any other
// row, write D for the real squared distance between q32 and p32 = p. The
// triangle inequality through q32 gives √D ≥ ‖q − p‖ − ‖q − q32‖, and
// ‖q − p‖² is at least R's real MINDIST, which the float64 MinDistSq exceeds
// by a relative (dim+2)·2⁻⁵³ at most. So √D > √((r + dim·η)(1+2γ)), the 1e-9
// margin absorbing the float64 roundings of MinDistSq, S and the measured
// query error (which can underflow by at most dim·2⁻¹⁰⁷⁴, far inside the
// dim·η term). CodeRadius32's proof then gives K > r. A NaN or infinite
// query error makes S NaN or +Inf, which stops nothing. FuzzF32Stop tests
// the claim.

import (
	"errors"
	"fmt"
	"math"

	"qdcbir/internal/vec"
)

// NarrowFloat32 installs the float32 leaf scorer on a tree over a float32
// corpus: the slab narrows to its float32 mirror, which must widen back to
// the slab bit for bit (NaN payloads aside) — the stop rule above assumes it.
// It is an error on a slab holding a value float32 cannot represent, and on
// a tree that holds the SQ8 row filter; it is a no-op on an empty tree and on
// one that already holds the mirror. Installing requires exclusion against
// searches.
func (t *Tree) NarrowFloat32() error {
	if t.fslab != nil || t.size == 0 {
		return nil
	}
	if t.quant != nil {
		return errors.New("rstar: tree already filters leaves through SQ8 codes")
	}
	fslab := vec.Narrow32(t.slab, nil)
	for i, v := range t.slab {
		if float64(fslab[i]) != v && !math.IsNaN(v) {
			return fmt.Errorf("rstar: slab value %v is not a float32: the float32 scorer needs float32 rows", v)
		}
	}
	t.fslab = fslab
	return nil
}

// Float32Scoring reports whether the float32 leaf scorer is installed.
func (t *Tree) Float32Scoring() bool { return t.fslab != nil }

// narrowErr returns ‖p − p32‖, p32 being p's float32 narrowing.
func narrowErr(p []float64, p32 []float32) float64 {
	var s float64
	for i, v := range p {
		d := v - float64(p32[i])
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// stop32 is the float32 descent's stop key S(r) for the squared radius r (a
// widened float32 kernel value) and the query's narrowing error qErr; see
// the theorem above.
func stop32(r, qErr float64, dim int) float64 {
	gamma := float64(dim/8+3+dim%8+3) * 0x1p-24
	reach := math.Sqrt((r+float64(dim)*0x1p-149)*(1+2*gamma)) + qErr
	return reach * reach * (1 + 1e-9)
}
