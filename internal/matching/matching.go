// Package matching implements Theorem 7 of the paper: a deterministic fully
// scalable MPC algorithm computing a maximal matching in O(log n) rounds
// with O(n^ε) space per machine.
//
// Each outer iteration (Algorithm 2) runs in O(1) charged MPC rounds:
//
//  1. pick the degree class whose good nodes B carry a δ/2-fraction of the
//     edges and sparsify the incident edge set E0 down to E* with maximum
//     degree O(n^{4δ}) (internal/sparsify, Section 3.2);
//  2. collect 2-hop neighbourhoods of E* onto machines (asserted <= space
//     budget) and derandomize one Luby step: a pairwise-independent seed
//     maps edges to z-values, the candidate matching E_h consists of the
//     local-minimum edges, and the method of conditional expectations picks
//     a seed for which the matched B-nodes carry a constant fraction of the
//     proven expectation Σ_{v∈B} d(v)/109 (Lemma 13);
//  3. add E_h to the output and delete the matched nodes.
//
// Each iteration removes a constant fraction of the edges, so O(log n)
// iterations suffice; the loop is unconditionally correct regardless of the
// thresholds because a non-empty E_h always makes progress and the final
// matching is maximal by construction (edges only disappear when an
// endpoint is matched).
//
// A core.Loop keeps each round's record, cancellation polls, seed search
// and observer event; this package keeps the round's own work.
package matching

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
	"repro/internal/sparsify"
)

// Result is the outcome of the deterministic maximal matching.
type Result struct {
	Matching []graph.Edge
	// Rounds holds one record per outer iteration; Objective is
	// Σ_{v∈B matched} d(v) under the selected seed.
	Rounds []core.Round
	// FallbackPicks counts iterations that resorted to the single
	// smallest-key edge because the candidate matching came back empty
	// (never observed in practice; kept for unconditional correctness).
	FallbackPicks int
	// Canceled is set when Params.Done stopped the solve at a round (or
	// seed-batch) boundary; Matching is then partial and NOT maximal, and
	// the caller must surface an error instead of the result.
	Canceled bool
}

// Deterministic computes a maximal matching of g with the derandomized
// algorithm of Section 3. The model, a model of g, is charged all MPC
// rounds and validates all machine-space claims. It is DeterministicIn with
// a private scratch context; repeated solvers (the Engine) share one.
func Deterministic(g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	return DeterministicIn(scratch.New(), g, p, model)
}

// DeterministicIn is Deterministic drawing every per-round buffer from sc:
// sparsification state, the E* edge list, the matched-node mask, and the
// shrinking outer-loop graph, which ping-pongs between sc's two loop CSR
// buffers instead of allocating a fresh graph per iteration. One selection
// state serves the objective and the apply step. The output is
// bit-identical to Deterministic at any worker count and for any prior
// state of sc; sc is Reset at every round boundary and left Reset on
// return.
func DeterministicIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	p.Validate()
	res := &Result{}
	lp := core.NewLoop(p, model, "matching", "sparsify")
	cur := g
	n := g.N()
	fam := core.PairwiseFamily(n)
	evaluator := hashfam.NewEvaluator(fam)
	// One selection state serves every candidate-seed evaluation and every
	// apply of every round (buffers are sized by round 1, the largest), so
	// an evaluation allocates nothing.
	var grp core.EdgeGroup

	for cur.M() > 0 && !lp.Stop() {
		r := core.Round{EdgesBefore: cur.M()}
		// The live-node count is observer-only work: skipped entirely when no
		// observer is attached, so unobserved solves pay nothing.
		liveNodes := 0
		if p.Observe != nil {
			for v := 0; v < n; v++ {
				if cur.Degree(graph.NodeID(v)) > 0 {
					liveNodes++
				}
			}
		}

		sp := sparsify.SparsifyEdgesIn(sc, cur, p, model)
		if lp.Stop() {
			// The sparsification may have been abandoned mid-chain; its
			// partial result must not reach a seed search.
			break
		}
		r.Stages = len(sp.Stages)

		// Collect 2-hop neighbourhoods in E* for the B-nodes: machine x_v
		// holds v's incident E*-edges and their incident E*-edges.
		model.AssertMachineWords(maxTwoHopWords(sp.EStar, sp.B, p.Workers()), "mm.2hop")
		model.ChargeRounds(2, "mm.collect") // sort + request round (§2.2)

		// Derandomized Luby step on E* (Section 3.3). The hash keys (slot 0
		// is the identity, so they are the plan's canonical edge keys) and
		// the table-discipline decisions are seed-independent, so they are
		// computed once per round (EdgeSel).
		deg := sp.Deg
		var sel core.EdgeSel
		core.EdgeSelInit(&sel, n, sp.EStarEdges, sc.Uint64sCap(len(sp.EStarEdges)), fam.P()-1)
		value := func(eh []graph.Edge) int64 {
			var v int64
			for _, e := range eh {
				if sp.B[e.U] {
					v += int64(deg[e.U])
				}
				if sp.B[e.V] {
					v += int64(deg[e.V])
				}
			}
			return v
		}
		// Each candidate is scored through the same selection that applies
		// the winner below, at one worker.
		objective := func(seed []uint64) int64 {
			return value(grp.Select(evaluator, &sel, seed, 1))
		}
		// Lemma 13 ⇒ E_h[Σ_{v∈N_h} d(v)] >= Σ_{v∈B} d(v)/109; we demand a
		// ThresholdFrac fraction of that.
		seed := lp.Search(&r, fam, objective, int64(p.ThresholdFrac*float64(sp.BWeight)/109.0), "mm.seed")
		if seed == nil {
			break
		}

		eh := grp.Select(evaluator, &sel, seed, p.Workers())
		if len(eh) == 0 {
			// Unconditional-progress fallback: match the smallest-key edge.
			eh = []graph.Edge{smallestEdge(cur)}
			res.FallbackPicks++
		}
		r.Selected = len(eh)
		res.Matching = append(res.Matching, eh...)

		matched := sc.Bools(n)
		for _, e := range eh {
			matched[e.U] = true
			matched[e.V] = true
		}
		cur = cur.WithoutNodesInto(matched, p.Workers(), sc.Loop().Next())
		model.ChargeScan("mm.apply")

		r.EdgesAfter = cur.M()
		lp.End(r, liveNodes)
		sc.Reset()
	}
	// A cancellation break exits mid-round with live slab checkouts; the
	// extra Reset (a no-op after a normal exit) keeps the documented
	// "sc left Reset on return" contract, which is what lets the Engine
	// re-pool the context after a canceled solve without leaking its slabs.
	sc.Reset()
	res.Rounds, res.Canceled = lp.Rounds, lp.Canceled
	return res
}

// maxTwoHopWords returns the largest number of words a machine holds when
// the 2-hop E*-neighbourhood of a B-node is collected: the node's incident
// edges plus its neighbours' incident edges (2 words per edge). The per-node
// measurements are independent, so the scan map-reduces over vertex shards;
// it reads n + 2|E*| words.
func maxTwoHopWords(estar *graph.Graph, b []bool, workers int) int {
	return parallel.MaxInt(workers, estar.N(), estar.N()+2*estar.M(), func(lo, hi int) int {
		max := 0
		for v := lo; v < hi; v++ {
			if !b[v] {
				continue
			}
			words := 2 * estar.Degree(graph.NodeID(v))
			for _, u := range estar.Neighbors(graph.NodeID(v)) {
				words += 2 * estar.Degree(u)
			}
			if words > max {
				max = words
			}
		}
		return max
	})
}

// smallestEdge returns the canonical minimum-key edge of a non-empty graph.
func smallestEdge(g *graph.Graph) graph.Edge {
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if graph.NodeID(v) < u {
				return graph.Edge{U: graph.NodeID(v), V: u}
			}
		}
	}
	panic("matching: smallestEdge on empty graph")
}
