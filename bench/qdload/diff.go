package main

// qdload -diff old.json new.json: the table a later PR's description pastes.

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median (Python's statistics.quantiles(v, n=4), exclusive
// method), or NaN with fewer than two values.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(len(s)-1) {
			pos = float64(len(s) - 1)
		}
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

func runDiff(out io.Writer, oldPath, newPath string) error {
	old, err := readSuite(oldPath)
	if err != nil {
		return err
	}
	cur, err := readSuite(newPath)
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	c, err := loadContract(root)
	if err != nil {
		return err
	}
	if why := old.Header.comparable(cur.Header); why != "" {
		return fmt.Errorf("the two result files are not comparable: %s", why)
	}
	fmt.Fprintf(out, "old: commit %s seed %d noisy=%v    new: commit %s seed %d noisy=%v    window %gs\n",
		old.Header.Commit, old.Header.Seed, old.Header.Noisy, cur.Header.Commit, cur.Header.Seed, cur.Header.Noisy, cur.Header.WindowSeconds)
	if old.Header.Noisy || cur.Header.Noisy {
		fmt.Fprintln(out, "warning: a run was marked noisy (calibration drifted more than 10 % across a window, or the hypervisor stole more than 2 % of the CPU time)")
	}
	for _, def := range c.Workloads {
		wo, wn := old.Workloads[def.Name], cur.Workloads[def.Name]
		if wo == nil || wn == nil {
			continue
		}
		fmt.Fprintf(out, "\n%s   failed old %d/%d  new %d/%d\n", def.Name, wo.Failed, wo.Attempted, wn.Failed, wn.Attempted)
		fmt.Fprintf(out, "  %-32s %12s %12s %9s %6s  %s\n", "metric", "old (median)", "new (median)", "new/old", "bound", "verdict")
		// failed_frac has bound 0: any rise is worse, and voids every gain
		// the same workload shows (wrong or refused answers are cheap).
		fo, fn := failedFrac(wo), failedFrac(wn)
		failedVerdict := "same"
		if fn > fo {
			failedVerdict = "worse"
		} else if fn < fo {
			failedVerdict = "better"
		}
		fmt.Fprintf(out, "  %-32s %12.6g %12.6g %9.4f %6.2f  %s\n", "failed_frac", fo, fn, ratio(fn, fo), 0.0, failedVerdict)
		for _, m := range c.EndToEnd {
			vo, vn := wo.EndToEnd[m.Name], wn.EndToEnd[m.Name]
			if len(vo) == 0 || len(vn) == 0 {
				continue
			}
			mo, mn := median(vo), median(vn)
			verdict := "same"
			switch spread := math.Max(quartileSpread(vo), quartileSpread(vn)); {
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f)", spread)
			case worsening(mo, mn, m.Better) > m.Bound:
				verdict = "worse"
			case worsening(mn, mo, m.Better) > m.Bound && fn > fo:
				verdict = "void (more operations failed)"
			case worsening(mn, mo, m.Better) > m.Bound:
				verdict = "better"
			}
			if math.IsNaN(quartileSpread(vo)) || math.IsNaN(quartileSpread(vn)) {
				verdict += " (one run a side: spread unknown)"
			}
			fmt.Fprintf(out, "  %-32s %12.6g %12.6g %9.4f %6.2f  %s\n", m.Name, mo, mn, ratio(mn, mo), m.Bound, verdict)
		}
		if wo.PerLayer == nil || wn.PerLayer == nil {
			continue
		}
		// Per-layer: self time first, largest change first, then the rest.
		type layerRow struct {
			layer    string
			old, cur float64 // self ms per traced op list
		}
		var rows []layerRow
		for _, l := range allLayers {
			rows = append(rows, layerRow{l,
				wo.PerLayer["self."+l+"_frac"] * wo.PerLayer["trace.op_time_ms"],
				wn.PerLayer["self."+l+"_frac"] * wn.PerLayer["trace.op_time_ms"]})
		}
		sort.SliceStable(rows, func(i, j int) bool {
			return math.Abs(rows[i].cur-rows[i].old) > math.Abs(rows[j].cur-rows[j].old)
		})
		fmt.Fprintf(out, "  per-layer self time over the traced op list (ms), by size of change\n")
		for _, r := range rows {
			if r.old == 0 && r.cur == 0 {
				continue
			}
			fmt.Fprintf(out, "    %-30s %12.4f %12.4f %9.4f\n", r.layer, r.old, r.cur, ratio(r.cur, r.old))
		}
		fmt.Fprintf(out, "  per-layer metrics that moved by more than 2 %%\n")
		for _, m := range c.PerLayer {
			vo, vn := wo.PerLayer[m.Name], wn.PerLayer[m.Name]
			if vo == vn || (vo != 0 && math.Abs(vn-vo)/math.Abs(vo) <= 0.02) {
				continue
			}
			fmt.Fprintf(out, "    %-30s %12.6g %12.6g %9.4f  %s\n", m.Name, vo, vn, ratio(vn, vo), m.Unit)
		}
	}
	return nil
}

// failedFrac is (transport errors + non-2xx + sheds + wrong answers) over
// operations attempted, across every run of the workload in the file.
func failedFrac(w *suiteWorkload) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
