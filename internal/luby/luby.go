// Package luby provides the comparison baselines of the experiment suite:
// Luby's classical randomized MIS algorithm (Section 2.1 of the paper), its
// matching variant (MIS on edges, cf. Israeli–Itai), and the sequential
// greedy MIS reference. The randomized algorithms consume a detrand source and
// report per-round progress so experiment F1/F2 can overlay their edge-decay
// and round curves against the deterministic algorithms'.
package luby

import (
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// MISResult is the outcome of the randomized MIS.
type MISResult struct {
	IndependentSet []graph.NodeID
	Rounds         []core.Round // edge counts and Selected; no search runs
}

// MIS runs Luby's algorithm: every round each surviving node draws a random
// z value and joins the independent set iff its value is strictly smaller
// (ties by id) than all surviving neighbours'; the set and its neighbourhood
// leave the graph. Terminates when no edges remain; isolated nodes join.
func MIS(g *graph.Graph, src *detrand.Source) *MISResult { return MISW(g, src, 0) }

// MISW is MIS with the per-round graph rebuild sharded over up to `workers`
// host workers (0 = GOMAXPROCS, 1 = serial). The z draws stay serial in id
// order (they consume the deterministic source) and the candidate selection
// runs through the serial per-round plan scan (core.LocalMinNodesSel), so
// the output is identical at any worker count. Draws come from the
// selection kernels' hash field [p) — the same range the derandomized
// solvers hash into — so the selection takes the packed single-word (z,id)
// fast path instead of the compare-two-words fallback that full 64-bit
// draws force. After the isolated join every live node of core.MISNodes
// has degree > 0 and every neighbour in cur is live, so the selection over
// a plan of the live nodes is exactly Luby's rule.
func MISW(g *graph.Graph, src *detrand.Source, workers int) *MISResult {
	sc := scratch.New()
	n := g.N()
	res := &MISResult{}
	cur := g
	nodes := core.NewMISNodes(n)
	// Draw z values from the pairwise selection field [p), like the
	// derandomized solver's hashes, rather than full 64-bit words: bounded
	// draws let LocalMinNodesSel pack (z, id) into single words and take its
	// single-compare fast path. The plan survives sc.Reset (see
	// scratch.Context.NodeSel); its keys are unused, z comes from src.
	p := core.PairwiseFamily(n).P()
	sel := sc.NodeSel()
	idKey := func(v graph.NodeID) uint64 { return uint64(v) }

	for {
		nodes.JoinIsolated(cur)
		if cur.M() == 0 {
			break
		}
		r := core.Round{EdgesBefore: cur.M()}
		// z[i] belongs to the i-th live node: the draws run in ascending
		// live-id order.
		sel.InitList(n, nodes.Live(), idKey, p-1)
		z := sc.Uint64s(len(sel.Live()))
		for i := range z {
			z[i] = src.Uint64n(p)
		}
		ih := core.LocalMinNodesSel(sc.NodeIDsCap(n), cur, sel, z)
		r.Selected = len(ih)
		remove := sc.Bools(n)
		nodes.Peel(cur, ih, remove)
		cur = cur.WithoutNodesInto(remove, workers, sc.Loop().Next())
		r.EdgesAfter = cur.M()
		res.Rounds = append(res.Rounds, r)
		sc.Reset()
	}
	res.IndependentSet = nodes.Set()
	return res
}

// MatchingResult is the outcome of the randomized maximal matching.
type MatchingResult struct {
	Matching []graph.Edge
	Rounds   []core.Round // as in MISResult
}

// MaximalMatching runs the Luby-style matching: every round each surviving
// edge draws a random value; local-minimum edges join the matching and their
// endpoints leave the graph.
func MaximalMatching(g *graph.Graph, src *detrand.Source) *MatchingResult {
	return MaximalMatchingW(g, src, 0)
}

// MaximalMatchingW is MaximalMatching with the per-round graph rebuild
// sharded over up to `workers` host workers (0 = GOMAXPROCS, 1 = serial).
// The z draws stay serial in canonical edge order and winners come from the
// serial two-pass selection scan (core.LocalMinEdgesSel) in edge order, so
// the output is identical at any worker count. As in MISW, draws come from
// the selection field [p), so the selection packs (z, edge key) into single
// words.
func MaximalMatchingW(g *graph.Graph, src *detrand.Source, workers int) *MatchingResult {
	sc := scratch.New()
	res := &MatchingResult{}
	cur := g
	n := g.N()
	// The epoch-stamped selection scratch lives for the whole solve (its
	// stamp array and generation counter must stay paired), so it is
	// declared here rather than checked out per round.
	var lm core.EdgeMinScratch
	var sel core.EdgeSel
	// Selection-field draws, as in MISW: below p the packed edge path of
	// LocalMinEdgesSel applies whenever the id width allows it.
	p := core.PairwiseFamily(n).P()
	for cur.M() > 0 {
		r := core.Round{EdgesBefore: cur.M()}
		edges := cur.EdgesAppend(sc.EdgesCap(cur.M()))
		z := sc.Uint64s(len(edges))
		for i := range edges {
			z[i] = src.Uint64n(p)
		}
		core.EdgeSelInit(&sel, n, edges, sc.Uint64sCap(len(edges)), p-1)
		picked := core.LocalMinEdgesSel(&lm, &sel, z)
		matched := sc.Bools(n)
		for _, e := range picked {
			matched[e.U] = true
			matched[e.V] = true
		}
		r.Selected = len(picked)
		res.Matching = append(res.Matching, picked...)
		cur = cur.WithoutNodesInto(matched, workers, sc.Loop().Next())
		r.EdgesAfter = cur.M()
		res.Rounds = append(res.Rounds, r)
		sc.Reset()
	}
	return res
}

// GreedyMIS returns the sequential greedy MIS in id order — the simplest
// correct reference for validators and size comparisons.
func GreedyMIS(g *graph.Graph) []graph.NodeID {
	var out []graph.NodeID
	blocked := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if blocked[v] {
			continue
		}
		out = append(out, graph.NodeID(v))
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			blocked[u] = true
		}
	}
	return out
}
