// Command qdbench regenerates the tables and figures of the paper's
// evaluation (§5) plus the ablation studies.
//
// Usage:
//
//	qdbench -exp table1            # Table 1: per-query precision & GTIR
//	qdbench -exp table2            # Table 2: quality per feedback round
//	qdbench -exp fig1              # Figure 1: PCA cluster scattering
//	qdbench -exp fig4to9           # Figures 4-9: qualitative top-k listings
//	qdbench -exp fig10 -sizes 5000,10000,15000
//	qdbench -exp fig11 -sizes 5000,10000,15000
//	qdbench -exp io                # §5.2.2 I/O accounting
//	qdbench -exp ablations
//	qdbench -exp all
//
// -scale quick runs a reduced corpus in seconds; -scale paper reproduces the
// full 15,000-image study (minutes).
//
// Regression-harness mode (mutually exclusive with -exp; see DESIGN.md §10):
//
//	qdbench -json current.json             # run the benchmark suite, write JSON
//	qdbench -json c.json -compare base.json -threshold 1.15
//	                                       # also diff against a baseline run;
//	                                       # exit 1 if any benchmark regressed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"qdcbir/internal/experiments"
	"qdcbir/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|fig1|fig4to9|fig10|fig11|io|extended|clientserver|video|ablations|all")
		scale    = flag.String("scale", "quick", "corpus scale: quick|paper")
		seed     = flag.Int64("seed", 1, "global random seed")
		users    = flag.Int("users", 0, "simulated users per query (0 = scale default)")
		sizes    = flag.String("sizes", "", "comma-separated DB sizes for fig10/fig11/io")
		queries  = flag.Int("queries", 0, "simulated queries per size for fig10/fig11/io (0 = default 100)")
		browse   = flag.Int("browse", 0, "random displays a user browses per round (0 = scale default; smaller values model impatient users and reproduce Table 2's gradual GTIR climb)")
		parallel = flag.Int("parallelism", 0, "worker count for build and finalize pools (0 = one per CPU; reported numbers are identical at every setting)")
		stats    = flag.String("stats", "", "write the run's metrics snapshot as JSON to this path ('-' = stderr)")
		quantize = flag.Bool("quantized", false, "run k-NN phases behind the SQ8 row filter (results are bit-identical; timing and filter counters change)")

		benchOut    = flag.String("json", "", "run the regression benchmark suite and write results as JSON to this path ('-' = stdout); skips -exp")
		benchBase   = flag.String("compare", "", "compare a fresh suite run against this baseline JSON; exit 1 on any regression or missing benchmark")
		threshold   = flag.Float64("threshold", 1.15, "regression threshold for -compare: fail when current ns/op exceeds threshold x baseline")
		benchFilter = flag.String("benchfilter", "", "regexp selecting suite benchmarks for -json/-compare (empty = all)")
	)
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *benchOut != "" || *benchBase != "" {
		os.Exit(runBenchMode(*benchOut, *benchBase, *threshold, *benchFilter, log))
	}

	cfg := experiments.QuickConfig()
	if *scale == "paper" {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = *seed
	if *users > 0 {
		cfg.Users = *users
	}
	if *browse > 0 {
		cfg.BrowsePerRound = *browse
	}
	cfg.Parallelism = *parallel
	cfg.Quantized = *quantize
	var observer *obs.Observer
	if *stats != "" {
		observer = obs.New(obs.NewRegistry())
		cfg.Observer = observer
		defer writeStats(*stats, observer)
	}

	sweep := parseSizes(*sizes, *scale)

	needQuality := has(*exp, "table1", "table2", "all")
	needSystem := needQuality || has(*exp, "fig1", "fig4to9", "extended", "all")
	needEfficiency := has(*exp, "fig10", "fig11", "io", "all")

	var sys *experiments.System
	if needSystem {
		log.Info("building corpus", "images", cfg.TotalImages, "categories", cfg.Categories)
		sys = experiments.BuildSystem(cfg)
	}

	if needQuality {
		log.Info("running quality study", "users", cfg.Users, "queries", 11)
		rep := experiments.RunQuality(sys)
		if has(*exp, "table1", "all") {
			rep.WriteTable1(os.Stdout)
			fmt.Println()
		}
		if has(*exp, "table2", "all") {
			rep.WriteTable2(os.Stdout)
			fmt.Println()
		}
	}
	if has(*exp, "fig1", "all") {
		experiments.RunFig1(sys, "car").WriteText(os.Stdout)
		fmt.Println()
	}
	if has(*exp, "fig4to9", "all") {
		experiments.RunQualitative(sys).WriteText(os.Stdout)
	}
	if has(*exp, "extended", "all") {
		log.Info("running extended baseline comparison")
		experiments.RunExtended(sys).WriteText(os.Stdout)
		fmt.Println()
	}
	if has(*exp, "video", "all") {
		log.Info("running video extension experiment")
		vRep, err := experiments.RunVideo(cfg, 0, 0, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qdbench:", err)
			os.Exit(1)
		}
		vRep.WriteText(os.Stdout)
		fmt.Println()
	}
	if has(*exp, "clientserver", "all") {
		log.Info("running client/server cost analysis")
		csRep, err := experiments.RunClientServer(cfg, 20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qdbench:", err)
			os.Exit(1)
		}
		csRep.WriteText(os.Stdout)
		fmt.Println()
	}
	if needEfficiency {
		log.Info("running efficiency sweep", "sizes", fmt.Sprint(sweep))
		rep := experiments.RunEfficiency(cfg, sweep, *queries)
		if has(*exp, "fig10", "all") {
			rep.WriteFig10(os.Stdout)
			fmt.Println()
		}
		if has(*exp, "fig11", "all") {
			rep.WriteFig11(os.Stdout)
			fmt.Println()
		}
		if has(*exp, "io", "all") {
			rep.WriteIO(os.Stdout)
			fmt.Println()
		}
	}
	if has(*exp, "ablations", "all") {
		log.Info("running ablations")
		acfg := cfg
		if acfg.Users > 4 {
			acfg.Users = 4 // ablations sweep 12 settings; cap per-setting cost
		}
		experiments.RunAblations(acfg).WriteText(os.Stdout)
	}
}

// writeStats dumps the observer's metrics snapshot as indented JSON to a file
// or, for "-", to stderr (keeping stdout clean for the experiment tables).
func writeStats(path string, o *obs.Observer) {
	data, err := json.MarshalIndent(o.Registry().Snapshot(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qdbench: stats:", err)
		return
	}
	data = append(data, '\n')
	if path == "-" {
		_, _ = os.Stderr.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "qdbench: stats:", err)
	}
}

func has(exp string, names ...string) bool {
	for _, n := range names {
		if exp == n {
			return true
		}
	}
	return false
}

func parseSizes(s, scale string) []int {
	if s == "" {
		if scale == "paper" {
			return []int{5000, 10000, 15000, 20000, 30000, 50000}
		}
		return []int{1000, 2000, 4000}
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "qdbench: bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
