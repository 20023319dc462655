package experiments

import (
	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/simcost"
	"repro/internal/tablefmt"
)

// RunT7 measures the cost of the derandomization itself (Section 2.4): how
// many candidate seeds each method-of-conditional-expectations search
// scans, how many O(1)-round batches that is, and how often the theorem's
// threshold was met (vs falling back to the best seed scanned). The paper's
// claim is that each derandomization is O(1) rounds — i.e. batches per
// search is a small constant.
func RunT7(cfg Config) []*tablefmt.Table {
	p := core.DefaultParams()
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 11
	}
	t := &tablefmt.Table{
		ID:    "T7",
		Title: "Seed-search cost per derandomization (method of conditional expectations, §2.4)",
		Columns: []string{"algorithm", "searches", "seeds total", "seeds/search",
			"batches/search", "threshold met", "batch size (S)"},
	}

	g := gen.GNM(n, 8*n, cfg.Seed)
	model := simcost.New(g.N(), g.M(), p.Epsilon)
	mmRes := matching.Deterministic(g, p, model)
	searches, seeds, met := 0, 0, 0
	for _, it := range mmRes.Rounds {
		searches++
		seeds += it.SeedsTried
		if it.SeedFound {
			met++
		}
		searches += it.Stages // one goodness search per sparsification stage
	}
	st := model.Stats()
	t.AddRow("matching (all searches)", searches, st.SeedsEvaluated,
		float64(st.SeedsEvaluated)/float64(searches),
		float64(st.SeedBatches)/float64(searches),
		percent(met, len(mmRes.Rounds)), st.S)

	g2 := gen.GNM(n, 8*n, cfg.Seed)
	model2 := simcost.New(g2.N(), g2.M(), p.Epsilon)
	misRes := mis.Deterministic(g2, p, model2)
	searches, met = 0, 0
	selections := 0
	for _, it := range misRes.Rounds {
		if it.SeedsTried > 0 {
			searches++
			selections++
			if it.SeedFound {
				met++
			}
		}
		searches += it.Stages
	}
	st2 := model2.Stats()
	t.AddRow("mis (all searches)", searches, st2.SeedsEvaluated,
		float64(st2.SeedsEvaluated)/float64(searches),
		float64(st2.SeedBatches)/float64(searches),
		percent(met, selections), st2.S)

	t.Notes = append(t.Notes,
		"paper claim: O(1) MPC rounds per derandomization = O(1) batches per search",
		"batches include the sparsification-stage goodness searches, which almost always accept the first batch")
	return []*tablefmt.Table{t}
}

func percent(a, b int) string {
	if b == 0 {
		return "n/a"
	}
	return tablefmt.Cell(float64(a) * 100 / float64(b))[:5] + "%"
}
