package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/lowdeg"
	"repro/internal/simcost"
	"repro/internal/tablefmt"
)

// RunT5 reproduces Theorem 1's low-degree regime (Section 5): at fixed n,
// the stage count of the compressed algorithm grows like O(log Δ) while the
// total phase count stays O(log n); the colouring uses O(Δ⁴) colours; and
// the same rows across two n values show the stage count is (nearly) flat
// in n — the O(log Δ + log log n) shape.
func RunT5(cfg Config) []*tablefmt.Table {
	p := core.DefaultParams()
	nVals := []int{1 << 12, 1 << 14}
	if cfg.Quick {
		nVals = []int{1 << 10, 1 << 12}
	}
	t := &tablefmt.Table{
		ID:    "T5",
		Title: "Theorem 1 / Section 5: stage-compressed MIS on bounded-degree graphs",
		Columns: []string{"n", "Δ", "colors", "ℓ", "phases", "stages",
			"stages/log2Δ", "rounds(paper acc.)", "rounds(executed)", "violations"},
	}
	for _, n := range nVals {
		for _, d := range cfg.degGrid() {
			g := gen.RandomRegular(n, d, cfg.Seed+uint64(d))
			model := simcost.New(g.N(), g.M(), p.Epsilon)
			res := lowdeg.MIS(g, p, model)
			if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
				panic("T5: " + reason)
			}
			t.AddRow(n, g.MaxDegree(), res.Colors, res.Ell, len(res.Phases), res.Stages,
				float64(res.Stages)/log2(float64(g.MaxDegree())),
				res.RoundsPaper, res.RoundsExecuted, len(model.Violations()))
		}
	}
	t.Notes = append(t.Notes,
		"paper claim: O(log Δ + log log n) rounds; shape checks: stages/log2Δ bounded, stages flat in n at fixed Δ",
		"rounds(paper acc.) charges O(1)/stage (local seed-sequence enumeration is free in MPC);",
		fmt.Sprintf("rounds(executed) charges the greedy per-phase selection this host performs — see substitutions 2-3 in the repro package doc; colors = O(Δ⁴) via Linial on G² (ε=%.2f)", p.Epsilon))
	return []*tablefmt.Table{t}
}
