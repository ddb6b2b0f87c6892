package main

// The run header: everything two result files must agree on before their
// numbers may be compared.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"qdcbir/internal/vec"
)

type header struct {
	Commit        string  `json:"commit"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	// Kernel dispatch: whether the assembly batch kernels are in use.
	AccelF32Batch bool `json:"accel_f32_batch"`
	AccelF32Multi bool `json:"accel_f32_multi"`
	AccelU8Batch  bool `json:"accel_u8_batch"`
	AccelU8Multi  bool `json:"accel_u8_multi"`
	Noisy         bool `json:"noisy"`
}

func newHeader(root string, seed int64, seconds float64) header {
	return header{
		Commit:        commitOf(root),
		Seed:          seed,
		WindowSeconds: seconds,
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		AccelF32Batch: vec.HasAcceleratedFloat32Batch(),
		AccelF32Multi: vec.HasAcceleratedFloat32Multi(),
		AccelU8Batch:  vec.HasAcceleratedUint8Batch(),
		AccelU8Multi:  vec.HasAcceleratedUint8Multi(),
	}
}

// commitOf names the source under test; a checkout that is not a git
// repository (the benchmark driver's) reports "unversioned".
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unversioned"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func (h header) print(f *os.File) {
	fmt.Fprintf(f, "qdload commit=%s seed=%d window=%gs nproc=%d GOMAXPROCS=%d go=%s\n",
		h.Commit, h.Seed, h.WindowSeconds, h.NProc, h.GOMAXPROCS, h.GoVersion)
	fmt.Fprintf(f, "  cpu=%q accel: f32_batch=%v f32_multi=%v u8_batch=%v u8_multi=%v noisy=%v\n",
		h.CPUModel, h.AccelF32Batch, h.AccelF32Multi, h.AccelU8Batch, h.AccelU8Multi, h.Noisy)
	fmt.Fprintln(f, "  qdserve -digest-interval 0 and qdrouter -scrape-interval -1s: no logging loop runs inside a window")
}

// comparable reports why two headers' results must not be compared, or "".
func (h header) comparable(o header) string {
	switch {
	case h.WindowSeconds != o.WindowSeconds:
		return fmt.Sprintf("window %gs vs %gs", h.WindowSeconds, o.WindowSeconds)
	case h.NProc != o.NProc || h.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("nproc/GOMAXPROCS %d/%d vs %d/%d", h.NProc, h.GOMAXPROCS, o.NProc, o.GOMAXPROCS)
	case h.CPUModel != o.CPUModel:
		return fmt.Sprintf("cpu %q vs %q", h.CPUModel, o.CPUModel)
	case h.GoVersion != o.GoVersion:
		return fmt.Sprintf("go %s vs %s", h.GoVersion, o.GoVersion)
	}
	return ""
}
