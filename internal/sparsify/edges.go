package sparsify

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// EdgeResult is the outcome of the Section 3.2 sparsification: the chosen
// degree class, the good-node set B, the initial edge set E0 = ∪_{v∈B} X(v)
// and the final low-degree subgraph E*.
//
// Lifetime: when produced by SparsifyEdgesIn, the slices (B, Deg, E0,
// EStarEdges) are checked out of the caller's scratch context and EStar
// lives in its stage CSR buffer, so the result is valid until the caller
// Resets the context or runs the next sparsification on it — i.e. for the
// enclosing outer-loop round, which is exactly how internal/matching
// consumes it. The allocating SparsifyEdges wrapper has no such
// constraint.
type EdgeResult struct {
	ClassIndex int    // i of Corollary 8
	B          []bool // good nodes B = C_i ∩ X
	BWeight    int64  // Σ_{v∈B} d(v) (Corollary 8 lower-bounds it by δ|E|/2)
	Deg        []int  // degrees in the input graph (the d(·) of the analysis)
	E0         []graph.Edge
	EStar      *graph.Graph // subgraph on the same node ids
	// EStarEdges is E*'s canonical edge list, the list EStar was built
	// from: E0 is collected in canonical order and every stage filters it
	// in order, so it equals EStar.Edges().
	EStarEdges []graph.Edge
	Stages     []StageReport
	// UsedFallback is set when subsampling emptied the candidate set and
	// E* was reset to E0 to preserve unconditional progress.
	UsedFallback bool
}

// MaxDegreeBound returns the paper's bound 2n^{4δ} on d_{E*}(v) (§3.3
// property (i)); the caller compares it with EStar.MaxDegree().
func MaxDegreeBound(n, invDelta int) int {
	dc := core.NewDegreeClasses(n, invDelta)
	return 2 * dc.GroupSize()
}

// inXof reports whether edge {v,u} (from v's perspective) lies in X(v) =
// {{u,v} ∈ E : d(u) <= d(v)}.
func inXof(deg []int, v, u graph.NodeID) bool { return deg[u] <= deg[v] }

// classesInto returns every node's degree class, dc.Class(deg[v]), in a
// slice from sc: Class once per degree 0..max into a table, then one serial
// lookup per node.
func classesInto(sc *scratch.Context, dc *core.DegreeClasses, deg []int) []int {
	maxDeg := 0
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	tab := sc.Ints(maxDeg + 1)
	for d := range tab {
		tab[d] = dc.Class(d)
	}
	classOf := sc.Ints(len(deg))
	for v, d := range deg {
		classOf[v] = tab[d]
	}
	return classOf
}

// SparsifyEdges runs the deterministic edge sparsification of Section 3.2 on
// g. The model, the solve's, is charged the Lemma 4 rounds and seed
// batches, and its S sets the stage searches' batch size.
// g must have at least one edge. Every stage report carries the Lemma 10/11
// audits (InvariantI/InvariantII), which T4, the ablations and the tests
// read. It runs on a private scratch context; repeated callers (the
// matching round loop, the Engine) use SparsifyEdgesIn to stay
// allocation-flat.
func SparsifyEdges(g *graph.Graph, p core.Params, model *simcost.Model) *EdgeResult {
	return sparsifyEdges(scratch.New(), g, p, model, true)
}

// SparsifyEdgesIn is SparsifyEdges drawing every per-round buffer — masks,
// degree and class tables, the stage chain's edge lists and run layouts,
// and E*'s CSR — from sc instead of the heap, and without the Lemma 10/11
// audits, which no solver reads: its stage reports carry zero InvariantI
// and InvariantII fields. Everything else, and every model charge, is
// what SparsifyEdges returns, at any worker count and for any prior state
// of sc. See EdgeResult for the lifetime of the returned slices; a chain
// that Params.Done stops returns without EStar and EStarEdges.
func SparsifyEdgesIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *EdgeResult {
	return sparsifyEdges(sc, g, p, model, false)
}

// sparsifyEdges is the body of both entry points; audit runs the Lemma
// 10/11 audits of every stage and the two references only they read.
func sparsifyEdges(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model, audit bool) *EdgeResult {
	p.Validate()
	n := g.N()
	deg := g.DegreesInto(sc.Ints(n))
	model.ChargeSort("sparsify.degrees") // nodes learn degrees (Lemma 4)

	workers := p.Workers()
	x := core.ComputeXInto(sc.Bools(n), g, deg, workers)
	model.ChargeSort("sparsify.X") // membership of X via sorted join

	dc := core.NewDegreeClasses(n, p.InvDelta)
	classOf := classesInto(sc, dc, deg)
	// Corollary 8: pick i maximising Σ_{v∈B_i} d(v), B_i = C_i ∩ X.
	weights := sc.Int64s(dc.K + 1)
	for v := 0; v < n; v++ {
		if x[v] {
			weights[classOf[v]] += int64(deg[v])
		}
	}
	model.ChargeScan("sparsify.classes")
	i := 1
	for c := 2; c <= dc.K; c++ {
		if weights[c] > weights[i] {
			i = c
		}
	}
	b := sc.Bools(n)
	for v := 0; v < n; v++ {
		b[v] = x[v] && classOf[v] == i
	}

	// E0 = ∪_{v∈B} X(v), collected straight off the CSR arrays in canonical
	// order (no intermediate full edge list).
	e0 := sc.EdgesCap(g.M())
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) > v {
				continue
			}
			if b[u] && inXof(deg, graph.NodeID(u), v) || b[v] && inXof(deg, v, graph.NodeID(u)) {
				e0 = append(e0, graph.Edge{U: graph.NodeID(u), V: v})
			}
		}
	}
	res := &EdgeResult{
		ClassIndex: i,
		B:          b,
		BWeight:    weights[i],
		Deg:        deg,
		E0:         e0,
	}

	stages := core.StageCount(i)
	cur := e0
	var dE0, xCount []int
	if audit {
		dE0, xCount = edgeCounts(sc, n, e0, b, deg)
	}

	// Stage boundaries are cancellation checkpoints: an abandoned request
	// stops subsampling here and returns without E* (EStar and EStarEdges
	// unset); the outer round loop re-checks Params.Done — monotone by
	// contract — right after this call and discards the result, so the
	// early exit can never reach output.
	for j := 1; j <= stages && len(cur) > 0; j++ {
		if p.Canceled() {
			return res
		}
		items := edgeStageItems(sc, n, cur, b, deg, dc, p, j)
		next, report, canceled := runStage(items, cur, sc.EdgesCap(len(cur)+1), p, j, model)
		if canceled {
			return res
		}
		if audit {
			report.InvariantI, report.InvariantII = auditEdgeStage(sc, n, next, b, deg, dE0, xCount, dc, p, j)
		}
		res.Stages = append(res.Stages, report)
		cur = next
	}
	if len(cur) == 0 && len(e0) > 0 {
		// Subsampling emptied the set (possible at laptop scale); fall back
		// to E0 so the outer loop always makes progress. Note that when
		// this happens 2-hop balls may exceed S; the model records it.
		cur = e0
		res.UsedFallback = true
	}
	// The one CSR of the call: every stage filters the canonical E0 in
	// order, so E* is canonical and its build skips the sort.
	res.EStar = graph.FromEdgesInto(n, cur, sc.Stage())
	res.EStarEdges = cur
	return res
}

// edgeStageItems lays out stage j of the edge chain: the items are the
// edges of E_{j-1}, which cur lists in canonical order. Stage j hashes them
// in domain-separation slot j so that every stage sees fresh independent
// values (see core.SlotKey).
func edgeStageItems(sc *scratch.Context, n int, cur []graph.Edge, b []bool, deg []int,
	dc *core.DegreeClasses, p core.Params, j int) *stageItems {

	m := len(cur)
	gamma := dc.GroupSize()
	fam := core.KWiseFamily(n, p.KWise)
	th := core.StageThreshold(fam.P(), n, dc.K)
	sampleProb := float64(th) / float64(fam.P())
	items := &stageItems{ev: hashfam.NewEvaluator(fam), th: th, gamma: gamma, keys: core.SlotKeysInto(sc.Uint64sCap(m), cur, j, n),
		z: sc.Uint64s(m)}
	// Type-A runs: each node's incident E_{j-1} edges. A counting sort
	// places edge t at both of its endpoints: ends[v] first counts d(v),
	// then holds the start of v's run and is advanced past each placed
	// edge, so it ends where the run ends. cur is canonical, so v receives
	// its lower neighbours' edges (as their V) before its higher ones' (as
	// their U), each in ascending order: every run is in ascending-neighbour
	// order. Type-B runs: for v ∈ B, the X(v) ∩ E_{j-1} edges, picked out of
	// v's type-A run branch-free, the other endpoint read off the edge. The
	// last pick may write one slot past the runs, hence the spare.
	idx := sc.Int32s(4*m + 1)
	ends := sc.Int32s(2 * n)
	for _, e := range cur {
		ends[e.U]++
		ends[e.V]++
	}
	w := int32(0)
	for v, d := range ends[:n] {
		ends[v] = w
		w += d
		items.groups += chunks(int(d), gamma)
	}
	for t, e := range cur {
		idx[ends[e.U]] = int32(t)
		ends[e.U]++
		idx[ends[e.V]] = int32(t)
		ends[e.V]++
	}
	runs := n
	for v := 0; v < n; v++ {
		if !b[v] {
			continue
		}
		start := w
		s := int32(0)
		if v > 0 {
			s = ends[v-1]
		}
		for _, t := range idx[s:ends[v]] {
			e := cur[t]
			idx[w] = t
			w += b2i(inXof(deg, graph.NodeID(v), e.U^e.V^graph.NodeID(v)))
		}
		if w > start {
			ends[runs] = w
			runs++
			items.groups += chunks(int(w-start), gamma)
		}
	}
	items.idx, items.ends = idx[:w], ends[:runs]

	// Both group types are judged by the two-sided Chernoff window μ±dev
	// on their count, which depends only on the chunk's size.
	items.lo = sc.Float64s(gamma + 1)
	items.hi = sc.Float64s(gamma + 1)
	for ex := 1; ex <= gamma; ex++ {
		mu := float64(ex) * sampleProb
		dev := p.Slack * dc.DevTerm(ex)
		items.lo[ex], items.hi[ex] = mu-dev, mu+dev
	}
	return items
}
