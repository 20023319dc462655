package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/sparsify"
	"repro/internal/tablefmt"
)

// RunT4 audits the sparsification invariants (Lemmas 10/11 for edges,
// 17/18 for nodes) on a dense workload where the stage machinery runs for
// several stages: per stage, the survivor count, the fraction of good
// logical machines under the selected seed, and the worst measured/bound
// ratio of each invariant (with the configured slack as the (1±o(1))
// factor; <= 1 passes). The final rows compare the E*/Q' maximum degree
// with the paper's 2n^{4δ} bound (§3.3/§4.3 property (i)).
func RunT4(cfg Config) []*tablefmt.Table {
	p := core.DefaultParams()
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 11
	}
	g := gen.GNM(n, 48*n, cfg.Seed) // average degree 96: class i >= 8

	edge := &tablefmt.Table{
		ID:    "T4a",
		Title: fmt.Sprintf("Edge sparsification invariants (Lemmas 10/11), G(n=%d, m=%d)", n, g.M()),
		Columns: []string{"stage", "edges before", "edges after", "good machines",
			"seed found", "Lem10 worst", "Lem10 viol", "Lem11 worst", "Lem11 viol"},
	}
	er := sparsify.SparsifyEdges(g, p, costModel(g, p))
	for _, st := range er.Stages {
		edge.AddRow(st.Stage, st.ItemsBefore, st.ItemsAfter,
			fmt.Sprintf("%d/%d", st.GoodGroups, st.Groups),
			st.SeedFound,
			st.InvariantI.WorstRatio, st.InvariantI.Violated,
			st.InvariantII.WorstRatio, st.InvariantII.Violated)
	}
	bound := sparsify.MaxDegreeBound(n, p.InvDelta)
	edge.Notes = append(edge.Notes,
		fmt.Sprintf("chosen class i=%d, |B|weight=%d, |E0|=%d, fallback=%v", er.ClassIndex, er.BWeight, len(er.E0), er.UsedFallback),
		fmt.Sprintf("max d_E*(v) = %d vs paper bound 2n^{4δ} = %d (slack-adjusted %d)", er.EStar.MaxDegree(), bound, int(p.Slack)*bound),
		"ratios are measured/bound with Slack folded into the bound; lower-bound invariants admit a <=1% binomial tail")

	node := &tablefmt.Table{
		ID:    "T4b",
		Title: fmt.Sprintf("Node sparsification invariants (Lemmas 17/18), G(n=%d, m=%d)", n, g.M()),
		Columns: []string{"stage", "|Q| before", "|Q| after", "good machines",
			"seed found", "Lem17 worst", "Lem17 viol", "Lem18 worst", "Lem18 viol"},
	}
	nr := sparsify.SparsifyNodes(g, p, costModel(g, p))
	for _, st := range nr.Stages {
		node.AddRow(st.Stage, st.ItemsBefore, st.ItemsAfter,
			fmt.Sprintf("%d/%d", st.GoodGroups, st.Groups),
			st.SeedFound,
			st.InvariantI.WorstRatio, st.InvariantI.Violated,
			st.InvariantII.WorstRatio, st.InvariantII.Violated)
	}
	node.Notes = append(node.Notes,
		fmt.Sprintf("chosen class i=%d, Q' induced max degree = %d vs slack-adjusted bound %d",
			nr.ClassIndex, nr.QGraph.MaxDegree(), int(p.Slack)*bound))
	return []*tablefmt.Table{edge, node}
}
