package experiments

import (
	"bytes"
	"testing"
)

// quickRecord renders the quick-scale experiments' non-timing output: the
// Table 1–2 quality study, the §5.2.2 I/O table, the client/server report
// and the ablations with their build times zeroed.
func quickRecord(t *testing.T, parallelism int) string {
	t.Helper()
	cfg := QuickConfig()
	cfg.Parallelism = parallelism
	var buf bytes.Buffer

	q := RunQuality(BuildSystem(cfg))
	q.WriteTable1(&buf)
	q.WriteTable2(&buf)

	RunEfficiency(cfg, []int{1000, 2000, 4000}, 100).WriteIO(&buf)

	cs, err := RunClientServer(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	cs.WriteText(&buf)

	acfg := cfg
	acfg.Users = 4
	ab := RunAblations(acfg)
	for i := range ab.Fractions {
		ab.Fractions[i].BuildTime = 0
	}
	for i := range ab.BuildModes {
		ab.BuildModes[i].BuildTime = 0
	}
	ab.WriteText(&buf)
	return buf.String()
}

// TestQuickRunsReproduce: a seed fixes the workload. Two quick-scale runs,
// one serial and one on four workers, print the same non-timing output.
func TestQuickRunsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick-scale experiments twice")
	}
	serial, parallel := quickRecord(t, 1), quickRecord(t, 4)
	if serial != parallel {
		t.Fatalf("quick-scale output differs between runs:\n--- parallelism 1\n%s\n--- parallelism 4\n%s", serial, parallel)
	}
}
