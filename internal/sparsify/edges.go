package sparsify

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// EdgeResult is the outcome of the Section 3.2 sparsification: the chosen
// degree class, the good-node set B, the initial edge set E0 = ∪_{v∈B} X(v)
// and the final low-degree subgraph E*.
//
// Lifetime: when produced by SparsifyEdgesIn, the slices (B, Deg, E0) are
// checked out of the caller's scratch context and EStar lives in its stage
// CSR double-buffer, so the result is valid until the caller Resets the
// context or runs the next sparsification on it — i.e. for the enclosing
// outer-loop round, which is exactly how internal/matching consumes it. The
// allocating SparsifyEdges wrapper has no such constraint.
type EdgeResult struct {
	ClassIndex int    // i of Corollary 8
	B          []bool // good nodes B = C_i ∩ X
	BWeight    int64  // Σ_{v∈B} d(v) (Corollary 8 lower-bounds it by δ|E|/2)
	Deg        []int  // degrees in the input graph (the d(·) of the analysis)
	E0         []graph.Edge
	EStar      *graph.Graph // subgraph on the same node ids
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

// inE0 reports whether the edge {a,b} belongs to E0 = ∪_{v∈B} X(v), where
// X(v) = {{u,v} ∈ E : d(u) <= d(v)}.
func inE0(b []bool, deg []int, e graph.Edge) bool {
	return (b[e.U] && deg[e.V] <= deg[e.U]) || (b[e.V] && deg[e.U] <= deg[e.V])
}

// inXof reports whether edge {v,u} (from v's perspective) lies in X(v).
func inXof(deg []int, v, u graph.NodeID) bool { return deg[u] <= deg[v] }

// SparsifyEdges runs the deterministic edge sparsification of Section 3.2 on
// g. The model (optional) is charged the Lemma 4 rounds and seed batches.
// g must have at least one edge. It is SparsifyEdgesIn with a private
// scratch context; repeated callers (the matching round loop, the Engine)
// use SparsifyEdgesIn to stay allocation-flat.
func SparsifyEdges(g *graph.Graph, p core.Params, model *simcost.Model) *EdgeResult {
	return SparsifyEdgesIn(scratch.New(), g, p, model)
}

// SparsifyEdgesIn is SparsifyEdges drawing every per-round buffer — masks,
// degree and class tables, the E0 edge list, and the stage-chain CSR
// rebuilds — from sc instead of the heap. See EdgeResult for the lifetime
// of the returned slices. Results are bit-identical to SparsifyEdges at any
// worker count and for any prior state of sc.
func SparsifyEdgesIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *EdgeResult {
	p.Validate()
	n := g.N()
	deg := g.DegreesInto(sc.Ints(n))
	model.ChargeSort("sparsify.degrees") // nodes learn degrees (Lemma 4)

	workers := p.Workers()
	x := core.ComputeXInto(sc.Bools(n), g, deg, workers)
	model.ChargeSort("sparsify.X") // membership of X via sorted join

	dc := core.NewDegreeClasses(n, p.InvDelta)
	classOf := sc.Ints(n)
	parallel.ForEach(workers, n, func(v int) {
		classOf[v] = dc.Class(deg[v])
	})
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
			if graph.NodeID(u) < v {
				e := graph.Edge{U: graph.NodeID(u), V: v}
				if inE0(b, deg, e) {
					e0 = append(e0, e)
				}
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
	curG := graph.FromEdgesInto(n, cur, sc.Stage().Next())
	dE0 := curG.DegreesInto(sc.Ints(n)) // d_{E0}(v), the invariant's reference degrees

	// Stage boundaries are cancellation checkpoints: an abandoned request
	// stops subsampling here and the (partial) result is discarded by the
	// canceled outer round loop, so the early exit can never reach output.
	for j := 1; j <= stages && len(cur) > 0 && !p.Canceled(); j++ {
		report := runEdgeStage(sc, g, curG, cur, b, deg, dE0, dc, p, j, model)
		if report.canceled {
			break
		}
		res.Stages = append(res.Stages, report.StageReport)
		cur = report.next
		curG = report.nextG
	}
	if len(cur) == 0 && len(e0) > 0 {
		// Subsampling emptied the set (possible at laptop scale); fall back
		// to E0 so the outer loop always makes progress. Note that when
		// this happens 2-hop balls may exceed S; the model records it.
		cur = e0
		curG = graph.FromEdgesInto(n, cur, sc.Stage().Next())
		res.UsedFallback = true
	}
	res.EStar = curG
	return res
}

// edgeStageOutcome bundles a stage report with the surviving edges and their
// graph (built once, in the stage double-buffer).
type edgeStageOutcome struct {
	StageReport
	next  []graph.Edge
	nextG *graph.Graph
	// canceled marks a stage whose seed search was stopped by Params.Done;
	// next/nextG are then unset and the caller abandons the stage chain.
	canceled bool
}

// edgeGroup is one logical machine: a contiguous run of the flattened
// incidence arrays. kind 0 = type A (two-sided concentration of the count),
// kind 1 = type B (two-sided as well, per §3.2's goodness definition).
type edgeGroup struct {
	start, end int
	kind       uint8
}

func runEdgeStage(sc *scratch.Context, g, curG *graph.Graph, cur []graph.Edge, b []bool, deg, dE0 []int,
	dc *core.DegreeClasses, p core.Params, j int, model *simcost.Model) edgeStageOutcome {

	n := g.N()
	gamma := dc.GroupSize()
	fam := core.KWiseFamily(n, p.KWise)
	th := core.StageThreshold(fam.P(), n, dc.K)
	sampleProb := float64(th) / float64(fam.P())

	// Flatten type-A groups (each node's incident cur-edges in chunks of γ)
	// and type-B groups (for v ∈ B, the X(v)∩cur edges in chunks of γ).
	// Type A contributes 2|cur| keys and type B at most that again.
	keys := sc.Uint64sCap(4 * len(cur))
	var groups []edgeGroup
	appendGroups := func(list []uint64, kind uint8) {
		for lo := 0; lo < len(list); lo += gamma {
			hi := lo + gamma
			if hi > len(list) {
				hi = len(list)
			}
			groups = append(groups, edgeGroup{start: len(keys) + lo, end: len(keys) + hi, kind: kind})
		}
		keys = append(keys, list...)
	}
	// Stage j hashes edges in domain-separation slot j so that every stage
	// sees fresh independent values (see core.SlotKey).
	edgeKey := func(v graph.NodeID, u graph.NodeID) uint64 {
		return core.SlotKey(graph.Edge{U: v, V: u}.Key(n), j, n)
	}
	var flat []uint64
	for v := 0; v < n; v++ {
		nbrs := curG.Neighbors(graph.NodeID(v))
		if len(nbrs) == 0 {
			continue
		}
		flat = flat[:0]
		for _, u := range nbrs {
			flat = append(flat, edgeKey(graph.NodeID(v), u))
		}
		appendGroups(flat, 0)
	}
	for v := 0; v < n; v++ {
		if !b[v] {
			continue
		}
		flat = flat[:0]
		for _, u := range curG.Neighbors(graph.NodeID(v)) {
			if inXof(deg, graph.NodeID(v), u) {
				flat = append(flat, edgeKey(graph.NodeID(v), u))
			}
		}
		if len(flat) > 0 {
			appendGroups(flat, 1)
		}
	}
	model.ChargeSort("sparsify.distribute") // spread incident edges over machines

	// Goodness objective: number of good groups under the seed, scored by
	// the stage fold (stageFold.search). Acceptance intervals are hoisted
	// out of the per-seed path: the Chernoff window μ±dev depends only on
	// the group's size, so DevTerm's √ex scaling runs once per group per
	// stage instead of once per group per seed (its n^{0.1δ} factor once
	// per degree-class table).
	gLo := sc.Float64s(len(groups))
	gHi := sc.Float64s(len(groups))
	for gi, gr := range groups {
		ex := gr.end - gr.start
		mu := float64(ex) * sampleProb
		dev := p.Slack * dc.DevTerm(ex)
		gLo[gi], gHi[gi] = mu-dev, mu+dev
	}
	fold := &stageFold{groups: groups, th: th, lo: gLo, hi: gHi}
	evaluator := hashfam.NewEvaluator(fam)
	res := fold.search(evaluator, keys, p, model)
	if res.Canceled {
		// Abandoned mid-search: res.Seed may be nil (no batch evaluated), so
		// there is nothing safe to apply — hand the cancellation up instead.
		return edgeStageOutcome{canceled: true}
	}

	// Apply the selected seed: E_j = {e ∈ E_{j-1} : h(e) < th}, one sharded
	// EvalKeys pass over this stage's per-edge keys (a single seed over the
	// whole round — exactly the shape EvalKeysW exists for). Shards filter
	// independent edge ranges; concatenation in shard order keeps the
	// canonical edge order of the serial scan.
	curKeys := core.SlotKeysInto(sc.Uint64sCap(len(cur)), cur, j, n)
	curZ := evaluator.EvalKeysW(res.Seed, curKeys, sc.Uint64s(len(cur)), p.Workers())
	next := parallel.Collect(p.Workers(), len(cur), func(lo, hi int) []graph.Edge {
		var part []graph.Edge
		for idx := lo; idx < hi; idx++ {
			if curZ[idx] < th {
				part = append(part, cur[idx])
			}
		}
		return part
	})
	model.ChargeScan("sparsify.apply")

	out := edgeStageOutcome{next: next}
	out.Stage = j
	out.ItemsBefore = len(cur)
	out.ItemsAfter = len(next)
	out.Groups = len(groups)
	out.GoodGroups = int(res.Value)
	out.SeedsTried = res.SeedsTried
	out.SeedFound = res.Found

	// Invariant (i), Lemma 10: d_{Ej}(v) <= (1+o(1)) n^{-jδ} d_E0(v) + n^{3δ},
	// checked with the slack as the (1+o(1)) factor. Both audits shard over
	// vertex ranges; per-shard partials merge in shard order. The stage
	// graph is built once, into the other half of the stage double-buffer,
	// and handed back as the next round's source.
	nextG := graph.FromEdgesInto(n, next, sc.Stage().Next())
	nJD := math.Pow(float64(n), -float64(j)/float64(dc.K))
	n3d := math.Pow(float64(n), 3/float64(dc.K))
	workers := p.Workers()
	invI := InvariantCheck{Name: "Lemma10: d_Ej(v) <= (1+o(1))n^{-jδ}d_E0(v)+n^{3δ}"}
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
	invII := InvariantCheck{Name: "Lemma11: |X(v)∩Ej| >= (1-o(1))n^{-jδ}|X(v)|"}
	invII.merge(parallel.MapReduce(workers, n, InvariantCheck{}, func(lo, hi int) InvariantCheck {
		var part InvariantCheck
		for v := lo; v < hi; v++ {
			if !b[v] {
				continue
			}
			xv := 0
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				if inXof(deg, graph.NodeID(v), u) && inE0(b, deg, graph.Edge{U: graph.NodeID(v), V: u}.Canon()) {
					xv++
				}
			}
			if xv == 0 {
				continue
			}
			kept := 0
			for _, u := range nextG.Neighbors(graph.NodeID(v)) {
				if inXof(deg, graph.NodeID(v), u) {
					kept++
				}
			}
			// Lower-bound invariant: ratio = bound / measured, with the slack
			// dividing the bound and an additive +1 absorbing integrality.
			bound := nJD * float64(xv) / p.Slack
			part.observe(bound / (float64(kept) + 1))
		}
		return part
	}, mergeChecks))
	out.InvariantI = invI
	out.InvariantII = invII
	out.nextG = nextG
	return out
}
