package main

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"qdcbir/internal/rstar"
	"qdcbir/internal/server"
)

func TestLoadInMemoryAndServe(t *testing.T) {
	ld, err := load("", 400, 1, true, 0, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, label := ld.eng, ld.label
	if eng.RFS().Len() == 0 {
		t.Fatal("empty engine")
	}
	if len(ld.rasters) != eng.RFS().Len() {
		t.Fatalf("%d rasters for %d images", len(ld.rasters), eng.RFS().Len())
	}
	if label(0) == "" {
		t.Error("labeler returned empty for image 0")
	}
	if label(-1) != "" {
		t.Error("labeler should be empty out of range")
	}
	// The loaded engine is servable end to end.
	srv := server.New(eng, label)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := server.Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Images() != eng.RFS().Len() {
		t.Errorf("client sees %d images", c.Images())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := load("/nonexistent.gob", 0, 1, false, 0, false, false, nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadLegacyArchive: qdbuild no longer writes the header-less gob of
// {Infos, RFS, Quant}, but files it wrote still open — with and without
// adopting their quantizer — and are still refused for -dynamic.
func TestLoadLegacyArchive(t *testing.T) {
	const path = "../testdata/qdbuild_legacy.gob" // qdbuild -vectors -images 120 -categories 11 -capacity 12 -reps 0.2 -seed 5 -quantize, before the versioned writer
	var want []int
	for _, quantize := range []bool{false, true} {
		ld, err := load(path, 0, 1, false, 1, quantize, false, nil)
		if err != nil {
			t.Fatalf("quantize=%v: %v", quantize, err)
		}
		if ld.version != 0 || ld.quantized != quantize || ld.eng.RFS().Tree().QuantizedScoring() != quantize {
			t.Errorf("quantize=%v: version %d, quantized %v", quantize, ld.version, ld.quantized)
		}
		if n := ld.eng.RFS().Len(); n != 104 || ld.label(n-1) == "" {
			t.Fatalf("quantize=%v: %d images, last label %q", quantize, n, ld.label(n-1))
		}
		res, _, err := ld.eng.QueryByExamples([]rstar.ItemID{0, 50, 103}, 12, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.IDs(); len(got) != 12 {
			t.Fatalf("quantize=%v: %d results", quantize, len(got))
		} else if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("SQ8 answers %v, exact %v", got, want)
		}
	}
	if _, err := load(path, 0, 1, false, 1, false, true, nil); err == nil {
		t.Error("legacy archive accepted for -dynamic")
	}
}
