package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/simcost"
	"repro/internal/stats"
	"repro/internal/tablefmt"
)

// RunT1 reproduces Theorem 7's shape: deterministic maximal matching in
// O(log n) MPC rounds at S = n^ε. For each n the table reports outer
// iterations, their ratio to log2(m) (which must stay bounded by a constant
// as n grows), the charged MPC rounds, and the space-violation count (0
// expected).
func RunT1(cfg Config) []*tablefmt.Table {
	t := &tablefmt.Table{
		ID:    "T1",
		Title: "Theorem 7: deterministic maximal matching rounds vs n (G(n,m), m=8n, eps=0.5)",
		Columns: []string{"n", "m", "iterations", "iters/log2(m)", "MPC rounds",
			"rounds/iter", "seed batches", "violations"},
	}
	p := core.DefaultParams()
	var xs, ys []float64
	for _, n := range cfg.nGrid() {
		g := gen.GNM(n, 8*n, cfg.Seed)
		model := simcost.New(g.N(), g.M(), p.Epsilon)
		res := matching.Deterministic(g, p, model)
		if ok, reason := check.IsMaximalMatching(g, res.Matching); !ok {
			panic("T1: " + reason)
		}
		st := model.Stats()
		iters := len(res.Rounds)
		xs = append(xs, log2(float64(g.M())))
		ys = append(ys, float64(iters))
		t.AddRow(n, g.M(), iters,
			float64(iters)/log2(float64(g.M())),
			st.Rounds,
			float64(st.Rounds)/float64(iters),
			st.SeedBatches,
			len(st.Violations))
	}
	slope, _ := stats.LinearFit(xs, ys)
	t.Notes = append(t.Notes,
		"paper claim: O(log n) rounds; shape check: iters/log2(m) bounded by a constant across the sweep",
		fmt.Sprintf("least-squares fit: iterations ≈ %.2f·log2(m) + c (R²=%.2f)", slope, stats.R2(xs, ys)),
		"rounds/iter constant = O(1) charged MPC rounds per iteration (Section 3)")
	return []*tablefmt.Table{t}
}

// RunT2 reproduces Theorem 14's shape for MIS, mirroring T1.
func RunT2(cfg Config) []*tablefmt.Table {
	t := &tablefmt.Table{
		ID:    "T2",
		Title: "Theorem 14: deterministic MIS rounds vs n (G(n,m), m=8n, eps=0.5)",
		Columns: []string{"n", "m", "iterations", "iters/log2(m)", "MPC rounds",
			"rounds/iter", "seed batches", "violations"},
	}
	p := core.DefaultParams()
	var xs, ys []float64
	for _, n := range cfg.nGrid() {
		g := gen.GNM(n, 8*n, cfg.Seed)
		model := simcost.New(g.N(), g.M(), p.Epsilon)
		res := mis.Deterministic(g, p, model)
		if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
			panic("T2: " + reason)
		}
		st := model.Stats()
		iters := len(res.Rounds)
		if iters == 0 {
			iters = 1
		}
		xs = append(xs, log2(float64(g.M())))
		ys = append(ys, float64(iters))
		t.AddRow(n, g.M(), iters,
			float64(iters)/log2(float64(g.M())),
			st.Rounds,
			float64(st.Rounds)/float64(iters),
			st.SeedBatches,
			len(st.Violations))
	}
	slope, _ := stats.LinearFit(xs, ys)
	t.Notes = append(t.Notes,
		"paper claim: O(log n) rounds; same reading as T1",
		fmt.Sprintf("least-squares fit: iterations ≈ %.2f·log2(m) + c", slope))
	return []*tablefmt.Table{t}
}

// workloadName formats generator descriptions used by several tables.
func workloadName(kind string, n, extra int) string {
	switch kind {
	case "gnm":
		return fmt.Sprintf("G(n=%d,m=%d)", n, extra)
	case "powerlaw":
		return fmt.Sprintf("powerlaw(n=%d,m=%d)", n, extra)
	case "regular":
		return fmt.Sprintf("regular(n=%d,d=%d)", n, extra)
	default:
		return kind
	}
}
