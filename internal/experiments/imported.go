package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"qdcbir/internal/baseline"
	"qdcbir/internal/dataset"
	"qdcbir/internal/metrics"
)

// BuildCorpusSystem wraps an already-assembled corpus — typically one
// reconstructed from imported embeddings via dataset.ReassembleStore — with
// a fresh RFS structure and QD engine, so every runner in this package works
// on external vector sets exactly as on the synthetic generator's output.
func BuildCorpusSystem(cfg Config, corpus *dataset.Corpus) *System {
	return assemble(cfg.withDefaults(), corpus)
}

// CorpusQueries derives evaluation queries from a corpus's own ground truth:
// one single-target query per subconcept holding at least minMembers images
// (<= 0 uses 2 — a one-image subconcept has nothing to retrieve beyond the
// example), in deterministic sorted order, capped at max queries (<= 0 keeps
// all). This is how imported labeled embedding sets — which don't come with
// the paper's Table-1 query list — get an evaluation workload.
func CorpusQueries(c *dataset.Corpus, minMembers, max int) []dataset.Query {
	if minMembers <= 0 {
		minMembers = 2
	}
	var out []dataset.Query
	for _, key := range c.Subconcepts() {
		if len(c.SubconceptIDs(key)) < minMembers {
			continue
		}
		out = append(out, dataset.Query{Name: key, Targets: []string{key}})
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// ImportedReport compares QD against the Rocchio query-point-movement
// baseline over corpus-derived queries — the head-to-head the import path
// exists for: multi-neighborhood relevance feedback versus the classic
// single-point update on externally supplied embedding geometry.
type ImportedReport struct {
	Cfg        Config
	Queries    int
	Techniques []TechniqueQuality
	PerQuery   map[string][]TechniqueQuality // query name -> per-technique rows
}

// RunQDvsRocchio evaluates QD and Rocchio on the given queries under the
// shared protocol (same simulated users, same retrieval sizes, Rounds
// feedback rounds each). Queries usually come from CorpusQueries; the
// Table-1 list works too.
func RunQDvsRocchio(sys *System, queries []dataset.Query) *ImportedReport {
	cfg := sys.Cfg
	rep := &ImportedReport{Cfg: cfg, PerQuery: make(map[string][]TechniqueQuality)}
	names := []string{"QD", "Rocchio"}
	totals := make(map[string]*acc, len(names))
	for _, n := range names {
		totals[n] = &acc{}
	}

	for _, q := range queries {
		rel := sys.Corpus.RelevantSet(q)
		k := sys.Corpus.GroundTruthSize(q)
		if k == 0 {
			continue
		}
		rep.Queries++
		perQ := make(map[string]*acc, len(names))
		for _, n := range names {
			perQ[n] = &acc{}
		}

		for u := 0; u < cfg.Users; u++ {
			seed := cfg.Seed*4321 + int64(u)*13 + int64(len(q.Name))

			qres := runQDSession(sys, q, rand.New(rand.NewSource(seed)))
			if qres.err == nil {
				record(perQ["QD"], totals["QD"], qres.result.IDs(), rel, q, sys)
			}

			initial := pickInitialImage(sys.Corpus, q, rand.New(rand.NewSource(seed+2)))
			r := baseline.NewRocchio(sys.Corpus.Store(), initial)
			sim := simFor(sys, q, seed+4)
			var ids []int
			for round := 0; round < cfg.Rounds; round++ {
				ids = r.Search(k)
				if round < cfg.Rounds-1 {
					sim.MaxPerRound = cfg.MarksPerRound
					r.Feedback(sim.Select(ids))
				}
			}
			record(perQ["Rocchio"], totals["Rocchio"], ids, rel, q, sys)
		}
		var rows []TechniqueQuality
		for _, n := range names {
			rows = append(rows, TechniqueQuality{
				Name:      n,
				Precision: metrics.Mean(perQ[n].p),
				GTIR:      metrics.Mean(perQ[n].g),
			})
		}
		rep.PerQuery[q.Name] = rows
	}
	for _, n := range names {
		rep.Techniques = append(rep.Techniques, TechniqueQuality{
			Name:      n,
			Precision: metrics.Mean(totals[n].p),
			GTIR:      metrics.Mean(totals[n].g),
		})
	}
	return rep
}

// WriteText renders the comparison.
func (r *ImportedReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "QD vs Rocchio on %d corpus-derived queries (%d users, %d rounds)\n",
		r.Queries, r.Cfg.Users, r.Cfg.Rounds)
	fmt.Fprintf(w, "%-10s | %9s | %6s\n", "technique", "precision", "GTIR")
	fmt.Fprintln(w, strings.Repeat("-", 34))
	for _, t := range r.Techniques {
		fmt.Fprintf(w, "%-10s | %9.2f | %6.2f\n", t.Name, t.Precision, t.GTIR)
	}
}
