//go:build !race

// The race detector's instrumentation allocates on its own account, so the
// allocation bound is checked without it.

package source

import (
	"os"
	"path/filepath"
	"testing"
)

// fvecsRows returns n rows of dim float32 components.
func fvecsRows(n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = float32(i*dim+j) / 7
		}
	}
	return rows
}

// TestReadFVecsAllocs: reading an .fvecs file allocates the same handful of
// objects at 10 rows as at 5,000 — the file, one record buffer, and a
// backing sized once from the file's length — and the rows read back
// exactly.
func TestReadFVecsAllocs(t *testing.T) {
	const dim, bound = 16, 12
	for _, n := range []int{10, 5000} {
		rows := fvecsRows(n, dim)
		path := filepath.Join(t.TempDir(), "rows.fvecs")
		if err := os.WriteFile(path, fvecsBytes(rows), 0o644); err != nil {
			t.Fatal(err)
		}
		read := func() *Batch {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			b, err := ReadFVecs(f)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		b := read()
		if b.Len() != n || cap(b.Data32) != n*dim {
			t.Fatalf("%d rows: read %d rows into a backing of capacity %d", n, b.Len(), cap(b.Data32))
		}
		for i, row := range rows {
			for j, v := range row {
				if b.Data32[i*dim+j] != v {
					t.Fatalf("%d rows: row %d[%d] = %v, want %v", n, i, j, b.Data32[i*dim+j], v)
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { read() }); allocs > bound {
			t.Errorf("%d rows: %.0f allocations per read, want at most %d", n, allocs, bound)
		}
	}
}
