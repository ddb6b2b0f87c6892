//go:build amd64 && gc && !purego && !noasm

package vec

// hasAVX2 reports whether the CPU and OS support AVX2 (CPUID feature bit plus
// OS-enabled YMM state via XGETBV). Implemented in qkernel_amd64.s.
func hasAVX2() bool

// uint8SqDistsAVX2 is the AVX2 batch kernel behind Uint8SquaredDistsTo:
// out[r] = Σ_i (q[i]−block[r*dim+i])² for r in [0, rows), dim ≥ 16. Each
// 16-code chunk widens to int16 lanes (VPMOVZXBW), differences
// square-and-pair-sum into int32 lanes (VPMADDWD), and a ≤15-code tail is one
// overlapping load of the row's last 16 codes masked to the lanes the prefix
// has not counted — all integer, so the result is bit-identical to the Go
// loop. Implemented in qkernel_amd64.s.
//
//go:noescape
func uint8SqDistsAVX2(q *uint8, dim int, block *uint8, out *int32, rows int)

func init() {
	if hasAVX2() {
		uint8BatchKernel = uint8SqDistsAVX2
	}
}
