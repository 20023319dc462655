package sparsify

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// The stage audits check the invariants of Lemmas 10/11 (edges) and 17/18
// (nodes) after every stage. They charge the model nothing and feed no
// later step, so only the allocating wrappers SparsifyEdges/SparsifyNodes
// run them, for T4, the ablations and the tests; the In entry points the
// solvers call skip them. Each counts off the stage's item list and scans
// the nodes serially in id order.

// edgeCounts returns, for every node v, its degree d(v) in the edge list
// edges and |X(v) ∩ edges| for v ∈ B (0 elsewhere). On E0 they are the
// references of the Lemma 10/11 audits: every X(v) edge of a B-node lies in
// E0, so |X(v) ∩ E0| = |X(v)|.
func edgeCounts(sc *scratch.Context, n int, edges []graph.Edge, b []bool, deg []int) (d, x []int) {
	d, x = sc.Ints(n), sc.Ints(n)
	for _, e := range edges {
		d[e.U]++
		d[e.V]++
		x[e.U] += int(b2i(b[e.U] && inXof(deg, e.U, e.V)))
		x[e.V] += int(b2i(b[e.V] && inXof(deg, e.V, e.U)))
	}
	return d, x
}

// auditEdgeStage checks stage j's E_j, the edge list next, against Lemmas
// 10 and 11.
func auditEdgeStage(sc *scratch.Context, n int, next []graph.Edge, b []bool, deg, dE0, xCount []int,
	dc *core.DegreeClasses, p core.Params, j int) (invI, invII InvariantCheck) {

	dJ, kept := edgeCounts(sc, n, next, b, deg)
	// Invariant (i), Lemma 10: d_{Ej}(v) <= (1+o(1)) n^{-jδ} d_E0(v) + n^{3δ},
	// checked with the slack as the (1+o(1)) factor.
	nJD := math.Pow(float64(n), -float64(j)/float64(dc.K))
	n3d := math.Pow(float64(n), 3/float64(dc.K))
	invI = InvariantCheck{Name: "Lemma10: d_Ej(v) <= (1+o(1))n^{-jδ}d_E0(v)+n^{3δ}"}
	// Invariant (ii), Lemma 11, for v ∈ B against |X(v)| in E0.
	invII = InvariantCheck{Name: "Lemma11: |X(v)∩Ej| >= (1-o(1))n^{-jδ}|X(v)|"}
	for v := 0; v < n; v++ {
		if dE0[v] != 0 {
			bound := p.Slack * (nJD*float64(dE0[v]) + n3d)
			invI.observe(float64(dJ[v]) / bound)
		}
		if b[v] && xCount[v] != 0 {
			// Lower-bound invariant: ratio = bound / measured, with the slack
			// dividing the bound and an additive +1 absorbing integrality.
			bound := nJD * float64(xCount[v]) / p.Slack
			invII.observe(bound / (float64(kept[v]) + 1))
		}
	}
	return invI, invII
}

// auditNodeStage checks stage j's Q_j, the ascending id list next over g's
// nodes, against Lemmas 17 and 18.
func auditNodeStage(sc *scratch.Context, g *graph.Graph, next []graph.NodeID, b []bool, invDeg []float64,
	dc *core.DegreeClasses, p core.Params, j int) (invI, invII InvariantCheck) {

	n := g.N()
	inQ := sc.Bools(n)
	for _, v := range next {
		inQ[v] = true
	}
	// Invariant (i), Lemma 17: for v ∈ Qj, d_{Qj}(v) <= (1+o(1)) n^{-jδ} d(v).
	nJD := math.Pow(float64(n), -float64(j)/float64(dc.K))
	n3d := math.Pow(float64(n), 3/float64(dc.K))
	invI = InvariantCheck{Name: "Lemma17: d_Qj(v) <= (1+o(1))n^{-jδ}d(v)"}
	for _, v := range next {
		dQ := 0
		for _, u := range g.Neighbors(v) {
			dQ += int(b2i(inQ[u]))
		}
		// The additive n^{3δ} mirrors Lemma 10's small-degree regime (the
		// proof of Lemma 17 stops shrinking once degrees fall below n^{3δ}).
		bound := p.Slack * (nJD*float64(g.Degree(v)) + n3d)
		invI.observe(float64(dQ) / bound)
	}
	delta := p.Delta()
	boundII := delta / (3 * math.Pow(float64(n), float64(j)/float64(dc.K)) * p.Slack)
	invII = InvariantCheck{Name: "Lemma18: Σ_{u∈Qj∼v}1/d(u) >= (δ-o(1))/(3n^{δj})"}
	for v := 0; v < n; v++ {
		if !b[v] {
			continue
		}
		// Branchless, as in stageItems.good: adding invDeg[u]·0 leaves the
		// sum unchanged, bit for bit.
		var sum float64
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			sum += invDeg[u] * float64(b2i(inQ[u]))
		}
		// +1/n absorbs integrality at laptop scale.
		invII.observe(boundII / (sum + 1/float64(n)))
	}
	return invI, invII
}
