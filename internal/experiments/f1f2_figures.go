package experiments

import (
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph/gen"
	"repro/internal/lowdeg"
	"repro/internal/luby"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/tablefmt"
)

// RunF1 produces the edge-decay figure: surviving edges per iteration for
// the deterministic matching and MIS against randomized Luby baselines on
// the same graph. The paper's analysis predicts geometric decay for all
// four curves; the deterministic ones must decay at least as reliably (no
// plateau), since their per-iteration removal is enforced by the seed
// search rather than by chance.
func RunF1(cfg Config) []*tablefmt.Table {
	p := core.DefaultParams()
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 11
	}
	g := gen.GNM(n, 8*n, cfg.Seed)
	fig := &tablefmt.Figure{
		ID:     "F1",
		Title:  "Edge decay per iteration: deterministic vs randomized Luby (G(n,8n))",
		XLabel: "iteration",
		YLabel: "edges remaining",
	}

	mmRes := matching.Deterministic(g, p, costModel(g, p))
	var s tablefmt.Series
	s.Name = "det-matching"
	for i, it := range mmRes.Rounds {
		s.Points = append(s.Points, [2]float64{float64(i + 1), float64(it.EdgesAfter)})
	}
	fig.Series = append(fig.Series, s)

	misRes := mis.Deterministic(g, p, costModel(g, p))
	s = tablefmt.Series{Name: "det-mis"}
	for i, it := range misRes.Rounds {
		s.Points = append(s.Points, [2]float64{float64(i + 1), float64(it.EdgesAfter)})
	}
	fig.Series = append(fig.Series, s)

	lubyMIS := luby.MIS(g, detrand.New(cfg.Seed))
	s = tablefmt.Series{Name: "luby-mis"}
	for i, r := range lubyMIS.Rounds {
		s.Points = append(s.Points, [2]float64{float64(i + 1), float64(r.EdgesAfter)})
	}
	fig.Series = append(fig.Series, s)

	lubyMM := luby.MaximalMatching(g, detrand.New(cfg.Seed+1))
	s = tablefmt.Series{Name: "luby-matching"}
	for i, r := range lubyMM.Rounds {
		s.Points = append(s.Points, [2]float64{float64(i + 1), float64(r.EdgesAfter)})
	}
	fig.Series = append(fig.Series, s)

	tbl := fig.Table()
	tbl.Notes = append(tbl.Notes,
		"shape: all curves decay geometrically; deterministic curves never plateau (enforced progress)")
	return []*tablefmt.Table{tbl}
}

// RunF2 produces the round-scaling figure: (a) iterations vs n for the
// deterministic algorithms and the randomized baselines on G(n, 8n); (b)
// stages vs Δ at fixed n for the Section 5 algorithm. Together they are the
// O(log n) and O(log Δ) shapes of Theorems 7/14/1.
func RunF2(cfg Config) []*tablefmt.Table {
	p := core.DefaultParams()

	nFig := &tablefmt.Figure{
		ID:     "F2a",
		Title:  "Rounds vs n (G(n,8n)): deterministic vs randomized",
		XLabel: "log2(n)",
		YLabel: "iterations",
	}
	var detMM, detMIS, randMIS, randMM tablefmt.Series
	detMM.Name, detMIS.Name, randMIS.Name, randMM.Name =
		"det-matching", "det-mis", "luby-mis", "luby-matching"
	for _, n := range cfg.nGrid() {
		g := gen.GNM(n, 8*n, cfg.Seed)
		x := log2(float64(n))
		detMM.Points = append(detMM.Points,
			[2]float64{x, float64(len(matching.Deterministic(g, p, costModel(g, p)).Rounds))})
		detMIS.Points = append(detMIS.Points,
			[2]float64{x, float64(len(mis.Deterministic(g, p, costModel(g, p)).Rounds))})
		randMIS.Points = append(randMIS.Points,
			[2]float64{x, float64(len(luby.MIS(g, detrand.New(cfg.Seed)).Rounds))})
		randMM.Points = append(randMM.Points,
			[2]float64{x, float64(len(luby.MaximalMatching(g, detrand.New(cfg.Seed)).Rounds))})
	}
	nFig.Series = []tablefmt.Series{detMM, detMIS, randMIS, randMM}
	na := nFig.Table()
	na.Notes = append(na.Notes, "shape: all four curves linear in log2(n) — the O(log n) claim")

	dFig := &tablefmt.Figure{
		ID:     "F2b",
		Title:  "Stages vs Δ at fixed n (random regular graphs): Section 5",
		XLabel: "log2(Δ)",
		YLabel: "stages",
	}
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 11
	}
	var stages, phases tablefmt.Series
	stages.Name, phases.Name = "lowdeg-stages", "lowdeg-phases"
	for _, d := range cfg.degGrid() {
		g := gen.RandomRegular(n, d, cfg.Seed+uint64(d))
		res := lowdeg.MIS(g, p, costModel(g, p))
		x := log2(float64(g.MaxDegree()))
		stages.Points = append(stages.Points, [2]float64{x, float64(res.Stages)})
		phases.Points = append(phases.Points, [2]float64{x, float64(len(res.Rounds))})
	}
	dFig.Series = []tablefmt.Series{stages, phases}
	db := dFig.Table()
	db.Notes = append(db.Notes,
		"shape: stages grow ~linearly in log2(Δ) while phases stay ~flat (O(log n)) — Theorem 1's O(log Δ) term")
	return []*tablefmt.Table{na, db}
}
