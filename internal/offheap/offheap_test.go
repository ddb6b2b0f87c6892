package offheap

import (
	"runtime/debug"
	"testing"
)

// TestRegion walks a region's life: zeroed views of every element type at
// aligned offsets, writes before Seal, a fault on a write after it (where
// regions are mappings), and Live back at its start after Free.
func TestRegion(t *testing.T) {
	start := Live()
	r, err := Alloc(8*3 + 4*3 + 3)
	if err != nil {
		t.Fatal(err)
	}
	if Live() != start+1 || r.Len() != 39 {
		t.Fatalf("Live %d (start %d), Len %d", Live(), start, r.Len())
	}
	f64, f32, u8 := View[float64](r, 0, 3), View[float32](r, 24, 3), View[uint8](r, 36, 3)
	for i := range 3 {
		if f64[i] != 0 || f32[i] != 0 || u8[i] != 0 {
			t.Fatalf("region not zeroed at %d", i)
		}
		f64[i], f32[i], u8[i] = 1.5, 2.5, 3
	}
	if err := r.Seal(); err != nil {
		t.Fatal(err)
	}
	if f64[2] != 1.5 || f32[2] != 2.5 || u8[2] != 3 {
		t.Fatal("sealing changed the contents")
	}
	if Mapped {
		func() {
			defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
			defer func() {
				if recover() == nil {
					t.Error("a store into a sealed region did not fault")
				}
			}()
			f32[0] = 9
		}()
	}
	if err := r.Free(); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(); err != nil || Live() != start || r.Len() != 0 {
		t.Fatalf("second Free: %v, Live %d (start %d), Len %d", err, Live(), start, r.Len())
	}
}

// TestViewBounds: a view that is misaligned or overruns the region panics
// instead of reading memory the region does not own.
func TestViewBounds(t *testing.T) {
	r, err := Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	for name, view := range map[string]func(){
		"misaligned": func() { View[float64](r, 4, 1) },
		"overrun":    func() { View[float32](r, 8, 3) },
		"negative":   func() { View[uint8](r, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s view accepted", name)
				}
			}()
			view()
		}()
	}
	if _, err := Alloc(0); err == nil {
		t.Error("empty region accepted")
	}
}
