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

// NodeResult is the outcome of the Section 4.2 sparsification: the chosen
// class Q0 = C_i, the good-node set B (Corollary 16) and the subsampled
// low-degree node set Q' (as a mask over g's nodes and as a list).
//
// Lifetime: when produced by SparsifyNodesIn, the slices (B, Deg, Q0, Q,
// QList) are checked out of the caller's scratch context and QGraph lives
// in its stage CSR buffer, so the result is valid until the caller Resets
// the context or runs the next sparsification on it — one outer-loop round,
// which is how internal/mis consumes it. The allocating SparsifyNodes
// wrapper has no such constraint.
type NodeResult struct {
	ClassIndex int
	B          []bool // v ∈ B iff Σ_{u∈C_i∼v} 1/d(u) >= δ/3
	BWeight    int64  // Σ_{v∈B} d(v) >= δ|E|/2 by Corollary 16
	Deg        []int
	Q0         []bool
	Q          []bool // Q' mask
	// QList is Q' as an ascending id list, the list the stage chain
	// carries: callers that need the candidates as a list
	// (core.NodeSel.InitList on the MIS path) take it directly instead of
	// re-scanning the O(n) mask every round. Q[v] iff v is in QList.
	QList        []graph.NodeID
	QGraph       *graph.Graph // induced subgraph on Q' (same node ids)
	Stages       []StageReport
	UsedFallback bool
}

// SparsifyNodes runs the deterministic node sparsification of Section 4.2.
// Every stage report carries the Lemma 17/18 audits (InvariantI/
// InvariantII), which T4 and the tests read. It runs on a private scratch
// context; repeated callers (the MIS round loop, the Engine) use
// SparsifyNodesIn.
func SparsifyNodes(g *graph.Graph, p core.Params, model *simcost.Model) *NodeResult {
	return sparsifyNodes(scratch.New(), g, p, model, true)
}

// SparsifyNodesIn is SparsifyNodes drawing every per-round buffer from sc
// instead of the heap, and without the Lemma 17/18 audits, which no solver
// reads: its stage reports carry zero InvariantI and InvariantII fields.
// Everything else, and every model charge, is what SparsifyNodes returns,
// at any worker count and for any prior state of sc. See NodeResult for
// the lifetime of the returned slices; a chain that Params.Done stops
// returns without Q, QList and QGraph.
func SparsifyNodesIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *NodeResult {
	return sparsifyNodes(sc, g, p, model, false)
}

// sparsifyNodes is the body of both entry points; audit runs the Lemma
// 17/18 audits of every stage.
func sparsifyNodes(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model, audit bool) *NodeResult {
	p.Validate()
	n := g.N()
	deg := g.DegreesInto(sc.Ints(n))
	model.ChargeSort("sparsify.degrees")

	workers := p.Workers()
	dc := core.NewDegreeClasses(n, p.InvDelta)
	classOf := classesInto(sc, dc, deg)

	// 1/d(u), read by the class sums, every stage's type-B groups and the
	// Lemma 18 audit (+Inf at isolated nodes, which no neighbour sum reads).
	invDeg := sc.Float64s(n)
	for v := range invDeg {
		invDeg[v] = 1 / float64(deg[v])
	}

	// B_i = {v : Σ_{u∈C_i∼v} 1/d(u) >= δ/3}; one pass accumulates all the
	// per-class reciprocal sums of every node, reading n + 2m words. Each
	// vertex owns its row and folds its (fixed, sorted) neighbour list left
	// to right, so the float sums are bit-identical at any worker count.
	inB := p.Delta()/3 - 1e-12
	sums := sc.Float64s(n * (dc.K + 1))
	parallel.ForEach(workers, n, n+2*g.M(), func(v int) {
		row := sums[v*(dc.K+1):]
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			row[classOf[u]] += invDeg[u]
		}
	})
	model.ChargeSort("sparsify.classSums")

	// An isolated node would add d(v) = 0 to any class, so its row is
	// skipped; late rounds are mostly isolated nodes.
	weights := sc.Int64s(dc.K + 1)
	for v := 0; v < n; v++ {
		if deg[v] == 0 {
			continue
		}
		row := sums[v*(dc.K+1):]
		for c := 1; c <= dc.K; c++ {
			if row[c] >= inB {
				weights[c] += int64(deg[v])
			}
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
	q0 := sc.Bools(n)
	q0List := sc.NodeIDsCap(n) // Q0 as the ascending list the chain starts from
	for v := 0; v < n; v++ {
		b[v] = sums[v*(dc.K+1)+i] >= inB
		q0[v] = classOf[v] == i
		if q0[v] {
			q0List = append(q0List, graph.NodeID(v))
		}
	}

	res := &NodeResult{
		ClassIndex: i,
		B:          b,
		BWeight:    weights[i],
		Deg:        deg,
		Q0:         q0,
	}

	stages := core.StageCount(i)
	cur := q0List
	// Stage boundaries are cancellation checkpoints, as in sparsifyEdges:
	// a canceled chain returns with only the pre-stage fields set (Q, QList
	// and QGraph are unset), and the outer MIS round discards it.
	for j := 1; j <= stages && len(cur) > 0; j++ {
		if p.Canceled() {
			return res
		}
		items := nodeStageItems(sc, g, cur, b, invDeg, dc, p, i, j)
		next, report, canceled := runStage(items, cur, sc.NodeIDsCap(len(cur)+1), p, j, model)
		if canceled {
			return res
		}
		if audit {
			report.InvariantI, report.InvariantII = auditNodeStage(sc, g, next, b, invDeg, dc, p, j)
		}
		res.Stages = append(res.Stages, report)
		cur = next
	}
	if len(cur) == 0 && len(q0List) > 0 {
		cur = q0List
		res.UsedFallback = true
	}
	q := sc.Bools(n)
	for _, v := range cur {
		q[v] = true
	}
	res.Q = q
	res.QList = cur
	res.QGraph = g.InducedNodesInto(q, workers, sc.Stage())
	return res
}

// nodeStageItems lays out stage j of the node chain (class i): the items
// are the nodes of Q_{j-1}, which cur lists in ascending id order.
func nodeStageItems(sc *scratch.Context, g *graph.Graph, cur []graph.NodeID, b []bool, invDeg []float64,
	dc *core.DegreeClasses, p core.Params, i, j int) *stageItems {

	n := g.N()
	q := len(cur)
	gamma := dc.GroupSize()
	fam := core.KWiseFamily(n, p.KWise)
	th := core.StageThreshold(fam.P(), n, dc.K)
	sampleProb := float64(th) / float64(fam.P())

	// Item t is node cur[t]: keys[t] is its stage-j slot key and w[t] its
	// weight 1/d for type-B groups. rank[v] is v's item index + 1, and 0
	// for v ∉ Q_{j-1}, so it doubles as the membership test.
	rank := sc.Int32s(n)
	keys := sc.Uint64s(q)
	w := sc.Float64s(q)
	for t, v := range cur {
		rank[v] = int32(t) + 1
		keys[t] = core.SlotKey(uint64(v), j, n)
		w[t] = invDeg[v]
	}
	items := &stageItems{ev: hashfam.NewEvaluator(fam), th: th, gamma: gamma, keys: keys, w: w,
		z: sc.Uint64s(q)}
	// One run per node v ∈ Q_{j-1} ∪ B with a neighbour in Q_{j-1}: the
	// item indices of N(v) ∩ Q_{j-1}, in neighbour order, filled branch-free
	// (the last write may land one slot past the runs, hence the spare).
	// v's type-Q groups (v ∈ Q_{j-1}) and type-B groups (v ∈ B) are both
	// γ-chunks of it. Each run reads g's row once, so the runs fit in 2|E|.
	idx := sc.Int32s(2*g.M() + 1)
	ends := sc.Int32s(n)
	count := sc.Bools(n)
	weighted := sc.Bools(n)
	at, runs, weightedGroups := int32(0), 0, 0
	for v := 0; v < n; v++ {
		inQ := rank[v] != 0
		if !inQ && !b[v] {
			continue
		}
		start := at
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			idx[at] = rank[u] - 1
			at += b2i(rank[u] != 0)
		}
		if at == start {
			continue
		}
		c := chunks(int(at-start), gamma)
		ends[runs], count[runs], weighted[runs] = at, inQ, b[v]
		runs++
		if inQ {
			items.groups += c
		}
		if b[v] {
			weightedGroups += c
		}
	}
	items.groups += weightedGroups
	items.idx, items.ends = idx[:at], ends[:runs]
	items.count, items.weighted = count[:runs], weighted[:runs]

	// Acceptance windows, precomputed once per stage. Type-Q groups bound
	// their count from above only, by a window that depends on the chunk's
	// size alone. Type-B groups bound their weight from below only: the
	// paper's n^{(0.9-i)δ}·√vx deviation from the scaled Bellare-Rompel
	// application (variables Z_u = n^{(i-1)δ}/d(u)) below the expected
	// weight, whose total is summed left to right over the chunk, the order
	// good adds the sampled weights in.
	items.lo = sc.Float64s(gamma + 1)
	items.hi = sc.Float64s(gamma + 1)
	for ex := 1; ex <= gamma; ex++ {
		mu := float64(ex) * sampleProb
		dev := p.Slack * dc.DevTerm(ex)
		items.lo[ex], items.hi[ex] = math.Inf(-1), mu+dev
	}
	devB := math.Pow(float64(n), (0.9-float64(i))/float64(dc.K))
	items.wLo = sc.Float64s(weightedGroups)
	wg := 0
	start := int32(0)
	for r, end := range items.ends {
		for lo := start; items.weighted[r] && lo < end; lo += int32(gamma) {
			chunk := items.idx[lo:min(lo+int32(gamma), end)]
			var total float64
			for _, t := range chunk {
				total += items.w[t]
			}
			dev := p.Slack * devB * math.Sqrt(float64(len(chunk)))
			items.wLo[wg] = sampleProb*total - dev
			wg++
		}
		start = end
	}
	return items
}
