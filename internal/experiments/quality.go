package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"qdcbir/internal/baseline"
	"qdcbir/internal/dataset"
	"qdcbir/internal/metrics"
	"qdcbir/internal/user"
)

// metricsGTIR aliases metrics.GTIR for internal callers.
func metricsGTIR(ids []int, targets []string, subOf func(int) string) float64 {
	return metrics.GTIR(ids, targets, subOf)
}

// QueryQuality is the Table-1 row for one query.
type QueryQuality struct {
	Query       string
	Subconcepts int
	MVPrecision float64
	MVGTIR      float64
	QDPrecision float64
	QDGTIR      float64
}

// RoundQuality is the Table-2 row for one feedback round, averaged over all
// queries and users. QD has no precision before its final round because no
// k-NN computation happens until then (§5.2.1); QDPrecisionValid marks the
// rounds where the number is meaningful.
type RoundQuality struct {
	Round            int
	MVPrecision      float64
	MVGTIR           float64
	QDPrecision      float64
	QDPrecisionValid bool
	QDGTIR           float64
}

// QualityReport aggregates the retrieval-effectiveness experiment: Table 1
// (per-query) and Table 2 (per-round), reproduced from the same sessions.
type QualityReport struct {
	Cfg     Config
	PerQry  []QueryQuality
	Rounds  []RoundQuality
	AvgMVP  float64
	AvgMVG  float64
	AvgQDP  float64
	AvgQDG  float64
	Dropped int // sessions that failed (no relevant found while browsing)
}

// RunQuality executes the §5.2.1 study: for each of the 11 Table-1 queries,
// Users simulated sessions run both the QD protocol and the MV baseline on
// the same corpus, measuring precision (= recall, since retrieval size equals
// ground truth size) and GTIR.
func RunQuality(sys *System) *QualityReport {
	cfg := sys.Cfg
	rep := &QualityReport{Cfg: cfg}
	queries := dataset.PaperQueries()

	type roundAcc struct {
		mvP, mvG, qdP, qdG []float64
	}
	roundAccs := make([]roundAcc, cfg.Rounds)

	for _, q := range queries {
		rel := sys.Corpus.RelevantSet(q)
		k := sys.Corpus.GroundTruthSize(q)
		if k == 0 {
			continue
		}
		row := QueryQuality{Query: q.Name, Subconcepts: len(q.Targets)}
		var mvP, mvG, qdP, qdG []float64

		for u := 0; u < cfg.Users; u++ {
			seed := cfg.Seed*1000 + int64(u)*17 + int64(len(q.Name))

			// --- QD session ---
			qres := runQDSession(sys, q, rand.New(rand.NewSource(seed)))
			if qres.err != nil {
				rep.Dropped++
			} else {
				ids := qres.result.IDs()
				p := metrics.Precision(ids, rel)
				g := gtir(sys.Corpus, q, ids)
				qdP = append(qdP, p)
				qdG = append(qdG, g)
				for r := 0; r < cfg.Rounds && r < len(qres.roundGTIR); r++ {
					if r == cfg.Rounds-1 {
						// Final round: quality of the finalized retrieval.
						roundAccs[r].qdP = append(roundAccs[r].qdP, p)
						roundAccs[r].qdG = append(roundAccs[r].qdG, g)
					} else {
						roundAccs[r].qdG = append(roundAccs[r].qdG, qres.roundGTIR[r])
					}
				}
			}

			// --- MV session on the same corpus and intent ---
			sim := simFor(sys, q, seed+1)
			initial := pickInitialImage(sys.Corpus, q, rand.New(rand.NewSource(seed+2)))
			mv, err := baseline.NewMVChannels(sys.Corpus.ChannelStores(), initial)
			if err != nil {
				// Vector-mode corpus: fall back to subspace viewpoints.
				mv = baseline.NewMVSubspaces(sys.Corpus.Store(), initial)
			}
			var lastIDs []int
			for r := 0; r < cfg.Rounds; r++ {
				lastIDs = mv.Search(k)
				roundAccs[r].mvP = append(roundAccs[r].mvP, metrics.Precision(lastIDs, rel))
				roundAccs[r].mvG = append(roundAccs[r].mvG, gtir(sys.Corpus, q, lastIDs))
				if r < cfg.Rounds-1 {
					sim.MaxPerRound = cfg.MarksPerRound
					mv.Feedback(sim.Select(lastIDs))
				}
			}
			mvP = append(mvP, metrics.Precision(lastIDs, rel))
			mvG = append(mvG, gtir(sys.Corpus, q, lastIDs))
		}

		row.MVPrecision = metrics.Mean(mvP)
		row.MVGTIR = metrics.Mean(mvG)
		row.QDPrecision = metrics.Mean(qdP)
		row.QDGTIR = metrics.Mean(qdG)
		rep.PerQry = append(rep.PerQry, row)
	}

	for r := 0; r < cfg.Rounds; r++ {
		rq := RoundQuality{
			Round:       r + 1,
			MVPrecision: metrics.Mean(roundAccs[r].mvP),
			MVGTIR:      metrics.Mean(roundAccs[r].mvG),
			QDGTIR:      metrics.Mean(roundAccs[r].qdG),
		}
		if r == cfg.Rounds-1 {
			rq.QDPrecision = metrics.Mean(roundAccs[r].qdP)
			rq.QDPrecisionValid = true
		}
		rep.Rounds = append(rep.Rounds, rq)
	}

	var mp, mg, qp, qg []float64
	for _, row := range rep.PerQry {
		mp = append(mp, row.MVPrecision)
		mg = append(mg, row.MVGTIR)
		qp = append(qp, row.QDPrecision)
		qg = append(qg, row.QDGTIR)
	}
	rep.AvgMVP, rep.AvgMVG = metrics.Mean(mp), metrics.Mean(mg)
	rep.AvgQDP, rep.AvgQDG = metrics.Mean(qp), metrics.Mean(qg)
	return rep
}

func simFor(sys *System, q dataset.Query, seed int64) *user.Simulator {
	s := user.New(q.Targets, sys.Corpus.SubconceptOf, rand.New(rand.NewSource(seed)))
	s.NoiseRate = sys.Cfg.NoiseRate
	return s
}

// pickInitialImage selects the MV baseline's query-by-example image: a random
// member of a random target subconcept, mirroring a user who begins with one
// example of what they want.
func pickInitialImage(c *dataset.Corpus, q dataset.Query, rng *rand.Rand) int {
	// Deterministic order over targets with non-empty membership.
	var pools [][]int
	for _, t := range q.Targets {
		if ids := c.SubconceptIDs(t); len(ids) > 0 {
			pools = append(pools, ids)
		}
	}
	if len(pools) == 0 {
		return 0
	}
	pool := pools[rng.Intn(len(pools))]
	return pool[rng.Intn(len(pool))]
}

// WriteTable1 renders the per-query comparison in the layout of Table 1.
func (r *QualityReport) WriteTable1(w io.Writer) {
	fmt.Fprintf(w, "Table 1. Per-query precision and GTIR, MV vs QD (%d users, %d images)\n",
		r.Cfg.Users, r.Cfg.TotalImages)
	fmt.Fprintf(w, "%-24s %5s | %9s %6s | %9s %6s\n", "Query", "#sub", "MV prec", "GTIR", "QD prec", "GTIR")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	for _, row := range r.PerQry {
		fmt.Fprintf(w, "%-24s %5d | %9.2f %6.2f | %9.2f %6.2f\n",
			row.Query, row.Subconcepts, row.MVPrecision, row.MVGTIR, row.QDPrecision, row.QDGTIR)
	}
	fmt.Fprintln(w, strings.Repeat("-", 72))
	fmt.Fprintf(w, "%-24s %5s | %9.2f %6.2f | %9.2f %6.2f\n",
		"Average", "", r.AvgMVP, r.AvgMVG, r.AvgQDP, r.AvgQDG)
	fmt.Fprintf(w, "(paper:  Average            |      0.32   0.56 |      0.70   1.00)\n")
	if r.Dropped > 0 {
		fmt.Fprintf(w, "note: %d QD sessions found no relevant representatives while browsing and were dropped\n", r.Dropped)
	}
}

// WriteTable2 renders the per-round comparison in the layout of Table 2.
func (r *QualityReport) WriteTable2(w io.Writer) {
	fmt.Fprintf(w, "Table 2. Quality per feedback round (averaged over %d queries x %d users)\n",
		len(r.PerQry), r.Cfg.Users)
	fmt.Fprintf(w, "%5s | %9s %6s | %9s %6s\n", "Round", "MV prec", "GTIR", "QD prec", "GTIR")
	fmt.Fprintln(w, strings.Repeat("-", 48))
	for _, rq := range r.Rounds {
		qdp := "   n/a"
		if rq.QDPrecisionValid {
			qdp = fmt.Sprintf("%6.2f", rq.QDPrecision)
		}
		fmt.Fprintf(w, "%5d | %9.2f %6.2f | %9s %6.2f\n", rq.Round, rq.MVPrecision, rq.MVGTIR, qdp, rq.QDGTIR)
	}
	fmt.Fprintln(w, strings.Repeat("-", 48))
	fmt.Fprintln(w, "(paper: round 1 MV 0.10/0.51, QD n/a/0.695; round 2 MV 0.30/0.56, QD n/a/0.907;")
	fmt.Fprintln(w, "        round 3 MV 0.32/0.56, QD 0.70/1.00)")
}
