package sparsify

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/scratch"
)

// The stage audits check the invariants of Lemmas 10/11 (edges) and 17/18
// (nodes) after every stage. They charge the model nothing and feed no
// later step, so only the allocating wrappers SparsifyEdges/SparsifyNodes
// run them, for T4, the ablations and the tests; the In entry points the
// solvers call skip them. Each audit shards over vertex ranges and merges
// per-shard partials in shard order, so its numbers are the same at any
// worker count.

// edgeAuditRefs returns the references of the Lemma 10/11 audits: d_{E0}(v)
// off E0's graph e0G, and |X(v)| for v ∈ B. Every X(v) edge of a B-node
// lies in E0, so counting over E0 counts over g.
func edgeAuditRefs(sc *scratch.Context, e0G *graph.Graph, e0 []graph.Edge, b []bool, deg []int) (dE0, xCount []int) {
	n := e0G.N()
	dE0 = e0G.DegreesInto(sc.Ints(n))
	xCount = sc.Ints(n)
	for _, e := range e0 {
		xCount[e.U] += int(b2i(b[e.U] && inXof(deg, e.U, e.V)))
		xCount[e.V] += int(b2i(b[e.V] && inXof(deg, e.V, e.U)))
	}
	return dE0, xCount
}

// auditEdgeStage checks stage j's E_j, the graph nextG, against Lemmas 10
// and 11.
func auditEdgeStage(nextG *graph.Graph, b []bool, deg, dE0, xCount []int,
	dc *core.DegreeClasses, p core.Params, j int) (invI, invII InvariantCheck) {

	n := nextG.N()
	workers := p.Workers()
	// Invariant (i), Lemma 10: d_{Ej}(v) <= (1+o(1)) n^{-jδ} d_E0(v) + n^{3δ},
	// checked with the slack as the (1+o(1)) factor.
	nJD := math.Pow(float64(n), -float64(j)/float64(dc.K))
	n3d := math.Pow(float64(n), 3/float64(dc.K))
	invI = InvariantCheck{Name: "Lemma10: d_Ej(v) <= (1+o(1))n^{-jδ}d_E0(v)+n^{3δ}"}
	invI.merge(parallel.MapReduce(workers, n, InvariantCheck{}, func(lo, hi int) InvariantCheck {
		var part InvariantCheck
		for v := lo; v < hi; v++ {
			if dE0[v] == 0 {
				continue
			}
			bound := p.Slack * (nJD*float64(dE0[v]) + n3d)
			part.observe(float64(nextG.Degree(graph.NodeID(v))) / bound)
		}
		return part
	}, mergeChecks))
	// Invariant (ii), Lemma 11, for v ∈ B against |X(v)| in E0.
	invII = InvariantCheck{Name: "Lemma11: |X(v)∩Ej| >= (1-o(1))n^{-jδ}|X(v)|"}
	invII.merge(parallel.MapReduce(workers, n, InvariantCheck{}, func(lo, hi int) InvariantCheck {
		var part InvariantCheck
		for v := lo; v < hi; v++ {
			if !b[v] || xCount[v] == 0 {
				continue
			}
			kept := 0
			for _, u := range nextG.Neighbors(graph.NodeID(v)) {
				kept += int(b2i(inXof(deg, graph.NodeID(v), u)))
			}
			// Lower-bound invariant: ratio = bound / measured, with the slack
			// dividing the bound and an additive +1 absorbing integrality.
			bound := nJD * float64(xCount[v]) / p.Slack
			part.observe(bound / (float64(kept) + 1))
		}
		return part
	}, mergeChecks))
	return invI, invII
}

// auditNodeStage checks stage j's Q_j, the mask next over g's nodes,
// against Lemmas 17 and 18.
func auditNodeStage(g *graph.Graph, next, b []bool, invDeg []float64,
	dc *core.DegreeClasses, p core.Params, j int) (invI, invII InvariantCheck) {

	n := g.N()
	workers := p.Workers()
	// Invariant (i), Lemma 17: for v ∈ Qj, d_{Qj}(v) <= (1+o(1)) n^{-jδ} d(v).
	nJD := math.Pow(float64(n), -float64(j)/float64(dc.K))
	n3d := math.Pow(float64(n), 3/float64(dc.K))
	invI = InvariantCheck{Name: "Lemma17: d_Qj(v) <= (1+o(1))n^{-jδ}d(v)"}
	invI.merge(parallel.MapReduce(workers, n, InvariantCheck{}, func(lo, hi int) InvariantCheck {
		var part InvariantCheck
		for v := lo; v < hi; v++ {
			if !next[v] {
				continue
			}
			dQ := 0
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				dQ += int(b2i(next[u]))
			}
			// The additive n^{3δ} mirrors Lemma 10's small-degree regime (the
			// proof of Lemma 17 stops shrinking once degrees fall below n^{3δ}).
			bound := p.Slack * (nJD*float64(g.Degree(graph.NodeID(v))) + n3d)
			part.observe(float64(dQ) / bound)
		}
		return part
	}, mergeChecks))
	delta := p.Delta()
	boundII := delta / (3 * math.Pow(float64(n), float64(j)/float64(dc.K)) * p.Slack)
	invII = InvariantCheck{Name: "Lemma18: Σ_{u∈Qj∼v}1/d(u) >= (δ-o(1))/(3n^{δj})"}
	invII.merge(parallel.MapReduce(workers, n, InvariantCheck{}, func(lo, hi int) InvariantCheck {
		var part InvariantCheck
		for v := lo; v < hi; v++ {
			if !b[v] {
				continue
			}
			// Branchless, as in stageItems.good: adding invDeg[u]·0 leaves
			// the sum unchanged, bit for bit.
			var sum float64
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				sum += invDeg[u] * float64(b2i(next[u]))
			}
			// +1/n absorbs integrality at laptop scale.
			part.observe(boundII / (sum + 1/float64(n)))
		}
		return part
	}, mergeChecks))
	return invI, invII
}
