package benchsuite

import (
	"strings"
	"testing"
)

// TestRunFilteredDigestOnly runs the two digest benchmarks (no corpus build)
// and checks the emitted document carries usable numbers.
func TestRunFilteredDigestOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark suite run (seconds) skipped in -short")
	}
	var lines []string
	f, err := Run(Options{Filter: "WindowedDigest"}, func(format string, args ...any) {
		lines = append(lines, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("filtered suite ran %d benchmarks, want 2", len(f.Benchmarks))
	}
	for _, b := range f.Benchmarks {
		if !strings.Contains(b.Name, "WindowedDigest") {
			t.Errorf("filter leaked %q", b.Name)
		}
		if b.Result == nil || b.Result.NsPerOp <= 0 {
			t.Errorf("%s: no result recorded: %+v", b.Name, b.Result)
		}
	}
	// The corpus-build progress line must not appear for a digest-only run.
	for _, l := range lines {
		if strings.Contains(l, "corpus") {
			t.Errorf("digest-only filter still built the corpus")
		}
	}
	if f.GOOS == "" || f.GOARCH == "" {
		t.Errorf("host identity missing: %+v", f)
	}
}

// TestRunFilteredKernels runs every leaf-scan kernel entry — both precisions
// at both the 37-d feature dim and the 512-d embedding dim — all fixture-free.
func TestRunFilteredKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark suite run (seconds) skipped in -short")
	}
	var lines []string
	f, err := Run(Options{Filter: "LeafScanKernel"}, func(format string, args ...any) {
		lines = append(lines, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"BenchmarkLeafScanKernel/exact":    false,
		"BenchmarkLeafScanKernel/sq8":      false,
		"BenchmarkLeafScanKernel/f32":      false,
		"BenchmarkLeafScanKernelEmbed/f64": false,
		"BenchmarkLeafScanKernelEmbed/f32": false,
	}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("filtered suite ran %d benchmarks, want %d", len(f.Benchmarks), len(want))
	}
	for _, b := range f.Benchmarks {
		if _, ok := want[b.Name]; !ok {
			t.Errorf("unexpected benchmark %q", b.Name)
			continue
		}
		want[b.Name] = true
		if b.Result == nil || b.Result.NsPerOp <= 0 {
			t.Errorf("%s: no result recorded: %+v", b.Name, b.Result)
		}
	}
	for name, ran := range want {
		if !ran {
			t.Errorf("%s missing from the run", name)
		}
	}
	for _, l := range lines {
		if strings.Contains(l, "corpus") {
			t.Errorf("kernel-only filter still built the corpus")
		}
	}
}

// TestRunFilteredBatchKernels runs one width of the multi-query batch curves
// (coalesced and serial, all three modes) fixture-free and checks each pair
// is present with usable numbers — the regression harness's hook on the
// batching speedup (the full M sweep is priced in CI and BENCH_batch.json).
func TestRunFilteredBatchKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark suite run (seconds) skipped in -short")
	}
	var lines []string
	f, err := Run(Options{Filter: `LeafScanMulti(Serial)?/(f64|f32|sq8)/m=4$`}, func(format string, args ...any) {
		lines = append(lines, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"BenchmarkLeafScanMulti/f64/m=4":       false,
		"BenchmarkLeafScanMultiSerial/f64/m=4": false,
		"BenchmarkLeafScanMulti/f32/m=4":       false,
		"BenchmarkLeafScanMultiSerial/f32/m=4": false,
		"BenchmarkLeafScanMulti/sq8/m=4":       false,
		"BenchmarkLeafScanMultiSerial/sq8/m=4": false,
	}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("filtered suite ran %d benchmarks, want %d", len(f.Benchmarks), len(want))
	}
	for _, b := range f.Benchmarks {
		if _, ok := want[b.Name]; !ok {
			t.Errorf("unexpected benchmark %q", b.Name)
			continue
		}
		want[b.Name] = true
		if b.Result == nil || b.Result.NsPerOp <= 0 {
			t.Errorf("%s: no result recorded: %+v", b.Name, b.Result)
		}
	}
	for name, ran := range want {
		if !ran {
			t.Errorf("%s missing from the run", name)
		}
	}
	for _, l := range lines {
		if strings.Contains(l, "corpus") {
			t.Errorf("batch-kernel filter still built the corpus")
		}
	}
}

// TestRunFilteredRouted boots the in-process fleet behind both routed
// benchmarks (a non-200 fails the benchmark, and so this test) and checks
// each reports time and allocations, fixture-free.
func TestRunFilteredRouted(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark suite run (seconds) skipped in -short")
	}
	var lines []string
	f, err := Run(Options{Filter: "Routed"}, func(format string, args ...any) {
		lines = append(lines, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 || f.Benchmarks[0].Name != "BenchmarkRoutedKNN" || f.Benchmarks[1].Name != "BenchmarkRoutedQuery" {
		t.Fatalf("filtered suite ran %+v, want RoutedKNN and RoutedQuery", f.Benchmarks)
	}
	for _, b := range f.Benchmarks {
		if b.Result == nil || b.Result.NsPerOp <= 0 || b.Result.BytesPerOp <= 0 || b.Result.AllocsPerOp <= 0 {
			t.Errorf("%s: no result recorded: %+v", b.Name, b.Result)
		}
	}
	for _, l := range lines {
		if strings.Contains(l, "corpus") {
			t.Errorf("routed filter still built the suite's corpus")
		}
	}
}

func TestRunRejectsBadFilter(t *testing.T) {
	if _, err := Run(Options{Filter: "("}, nil); err == nil {
		t.Error("bad regexp accepted")
	}
	if _, err := Run(Options{Filter: "NoSuchBenchmark"}, nil); err == nil {
		t.Error("empty selection accepted")
	}
}
