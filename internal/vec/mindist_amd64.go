//go:build amd64 && gc && !purego && !noasm

package vec

// minDistSqChildrenAVX2 is the AVX2 body of MinDistSqChildren: out[c] is the
// MINDIST of q to child c of the dimension-major box, for n >= 4 children of
// dim >= 1 dimensions, weighted by w unless w is nil. Four children share a
// ymm register, one lane each, and four registers run per pass, so sixteen
// add chains overlap; each lane adds its terms in index order, with the
// comparing clamp (VCMPPD GT_OQ against zero) and a separately rounded
// product (VMULPD, never FMA), so every lane is MinDistSq's bits.
// Implemented in mindist_amd64.s.
//
//go:noescape
func minDistSqChildrenAVX2(q, w *float64, dim int, box *float64, n int, out *float64)

func init() {
	if hasAVX2() {
		minDistChildrenKernel = minDistSqChildrenAVX2
	}
}
