package experiments

import (
	"repro/internal/cclique"
	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/tablefmt"
)

// RunT6 reproduces Corollary 2: deterministic MIS (and maximal matching via
// the line graph) in O(log Δ) CONGESTED CLIQUE rounds, against the prior
// state of the art of Censor-Hillel et al. [15] at O(log Δ · log n). The
// baseline is a round-accounting model of [15] (substitution 5 of the repro
// package documentation):
// its per-phase bit-by-bit seed voting costs Θ(log n) rounds, charged
// against the same executed phase counts. The shape claim: ours wins
// everywhere and the ratio grows with n.
func RunT6(cfg Config) []*tablefmt.Table {
	p := core.DefaultParams()
	nVals := []int{1 << 10, 1 << 12}
	if cfg.Quick {
		nVals = []int{1 << 9, 1 << 11}
	}
	t := &tablefmt.Table{
		ID:    "T6",
		Title: "Corollary 2: CONGESTED CLIQUE MIS rounds, ours vs Censor-Hillel et al. [15] accounting",
		Columns: []string{"n", "Δ", "stages", "phases", "rounds det",
			"rounds CH15", "speedup", "capacity violations"},
	}
	for _, n := range nVals {
		for _, d := range cfg.degGrid() {
			g := gen.RandomRegular(n, d, cfg.Seed+uint64(n+d))
			res := cclique.DetMIS(g, p)
			t.AddRow(n, g.MaxDegree(), res.Stages, res.Phases,
				res.RoundsDet, res.RoundsCH15,
				float64(res.RoundsCH15)/float64(res.RoundsDet),
				len(res.Model.Violations()))
		}
	}
	t.Notes = append(t.Notes,
		"paper claim: O(log Δ) vs [15]'s O(log Δ·log n); shape: speedup > 1 everywhere, growing with n at fixed Δ")

	mm := &tablefmt.Table{
		ID:      "T6b",
		Title:   "Corollary 2 (matching): CONGESTED CLIQUE maximal matching via line-graph MIS",
		Columns: []string{"n", "Δ", "matching size", "rounds det", "rounds CH15", "speedup"},
	}
	for _, d := range cfg.degGrid()[:2] {
		n := nVals[0]
		g := gen.RandomRegular(n, d, cfg.Seed+uint64(d))
		res := cclique.DetMatching(g, p)
		mm.AddRow(n, g.MaxDegree(), len(res.Matching), res.RoundsDet, res.RoundsCH15,
			float64(res.RoundsCH15)/float64(res.RoundsDet))
	}
	return []*tablefmt.Table{t, mm}
}
