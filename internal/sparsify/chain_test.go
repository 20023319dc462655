package sparsify

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
	"repro/internal/parallel"
	"repro/internal/scratch"
)

// The stage chains carry their items as lists: E_{j-1} as its canonical
// edge list and Q_{j-1} as its ascending id list. The layouts and audits
// they replaced read a CSR of every E_j and an n-sized mask of every Q_j;
// they are kept here as the references the list chain is pinned to.

// csrEdgeStageItems is the layout edgeStageItems is pinned to: stage j of
// the edge chain laid out off E_{j-1}'s CSR curG, the graph of cur, which
// lists the same edges in canonical order, so edge t is curG's t-th edge.
func csrEdgeStageItems(sc *scratch.Context, curG *graph.Graph, cur []graph.Edge, b []bool, deg []int,
	dc *core.DegreeClasses, p core.Params, j int) *stageItems {

	n := curG.N()
	m := len(cur)
	gamma := dc.GroupSize()
	fam := core.KWiseFamily(n, p.KWise)
	th := core.StageThreshold(fam.P(), n, dc.K)
	sampleProb := float64(th) / float64(fam.P())
	items := &stageItems{ev: hashfam.NewEvaluator(fam), th: th, gamma: gamma, keys: core.SlotKeysInto(sc.Uint64sCap(m), cur, j, n),
		z: sc.Uint64s(m)}
	// Type-A runs: each node's incident E_{j-1} edges, which are its curG
	// row with every slot labeled by its edge id. Type-B runs: for v ∈ B,
	// the X(v) ∩ E_{j-1} edges, picked out of v's labeled row branch-free.
	// The last pick may write one slot past the runs, hence the spare.
	idx := sc.Int32s(4*m + 1)
	eid := curG.EdgeIDsInto(idx[:2*m], sc.Int32s(n))
	ends := sc.Int32s(2 * n)
	w := int32(0)
	for v := 0; v < n; v++ {
		w += int32(curG.Degree(graph.NodeID(v)))
		ends[v] = w
		items.groups += chunks(curG.Degree(graph.NodeID(v)), gamma)
	}
	runs := n
	for v := 0; v < n; v++ {
		if !b[v] {
			continue
		}
		start := w
		s := ends[v] - int32(curG.Degree(graph.NodeID(v)))
		for _, u := range curG.Neighbors(graph.NodeID(v)) {
			idx[w] = eid[s]
			w += b2i(inXof(deg, graph.NodeID(v), u))
			s++
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

// maskNodeStageItems is the layout nodeStageItems is pinned to: stage j of
// the node chain (class i) laid out off Q_{j-1} as the n-sized mask cur,
// its items the set nodes in id order.
func maskNodeStageItems(sc *scratch.Context, g *graph.Graph, cur, b []bool, invDeg []float64,
	dc *core.DegreeClasses, p core.Params, i, j int) *stageItems {

	n := g.N()
	gamma := dc.GroupSize()
	fam := core.KWiseFamily(n, p.KWise)
	th := core.StageThreshold(fam.P(), n, dc.K)
	sampleProb := float64(th) / float64(fam.P())

	// The items are the nodes of Q_{j-1}, in id order: rank[v] is v's item
	// index, keys its stage-j slot key and w its weight 1/d(v) for type-B
	// groups.
	rank := sc.Int32s(n)
	keys := sc.Uint64s(n)
	w := sc.Float64s(n)
	q := 0
	for v := 0; v < n; v++ {
		if cur[v] {
			rank[v] = int32(q)
			keys[q] = core.SlotKey(uint64(v), j, n)
			w[q] = invDeg[v]
			q++
		}
	}
	items := &stageItems{ev: hashfam.NewEvaluator(fam), th: th, gamma: gamma, keys: keys[:q], w: w[:q],
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
		if !cur[v] && !b[v] {
			continue
		}
		start := at
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			idx[at] = rank[u]
			at += b2i(cur[u])
		}
		if at == start {
			continue
		}
		c := chunks(int(at-start), gamma)
		ends[runs], count[runs], weighted[runs] = at, cur[v], b[v]
		runs++
		if cur[v] {
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

// csrEdgeAuditRefs returns the references of the Lemma 10/11 audits:
// d_{E0}(v) off E0's graph e0G, and |X(v)| for v ∈ B. Every X(v) edge of a
// B-node lies in E0, so counting over E0 counts over g.
func csrEdgeAuditRefs(sc *scratch.Context, e0G *graph.Graph, e0 []graph.Edge, b []bool, deg []int) (dE0, xCount []int) {
	n := e0G.N()
	dE0 = e0G.DegreesInto(sc.Ints(n))
	xCount = sc.Ints(n)
	for _, e := range e0 {
		xCount[e.U] += int(b2i(b[e.U] && inXof(deg, e.U, e.V)))
		xCount[e.V] += int(b2i(b[e.V] && inXof(deg, e.V, e.U)))
	}
	return dE0, xCount
}

// csrAuditEdgeStage is the sharded audit auditEdgeStage is pinned to: it
// checks stage j's E_j, the graph nextG, against Lemmas 10 and 11. It and
// maskAuditNodeStage state parallel.SerialWork as their work, so at two or
// more workers their shards run concurrently at every size.
func csrAuditEdgeStage(nextG *graph.Graph, b []bool, deg, dE0, xCount []int,
	dc *core.DegreeClasses, p core.Params, j int) (invI, invII InvariantCheck) {

	n := nextG.N()
	workers := p.Workers()
	// Invariant (i), Lemma 10: d_{Ej}(v) <= (1+o(1)) n^{-jδ} d_E0(v) + n^{3δ},
	// checked with the slack as the (1+o(1)) factor.
	nJD := math.Pow(float64(n), -float64(j)/float64(dc.K))
	n3d := math.Pow(float64(n), 3/float64(dc.K))
	invI = InvariantCheck{Name: "Lemma10: d_Ej(v) <= (1+o(1))n^{-jδ}d_E0(v)+n^{3δ}"}
	invI.merge(parallel.MapReduce(workers, n, parallel.SerialWork, InvariantCheck{}, func(lo, hi int) InvariantCheck {
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
	invII.merge(parallel.MapReduce(workers, n, parallel.SerialWork, InvariantCheck{}, func(lo, hi int) InvariantCheck {
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

// maskAuditNodeStage is the sharded audit auditNodeStage is pinned to: it
// checks stage j's Q_j, the mask next over g's nodes, against Lemmas 17
// and 18.
func maskAuditNodeStage(g *graph.Graph, next, b []bool, invDeg []float64,
	dc *core.DegreeClasses, p core.Params, j int) (invI, invII InvariantCheck) {

	n := g.N()
	workers := p.Workers()
	// Invariant (i), Lemma 17: for v ∈ Qj, d_{Qj}(v) <= (1+o(1)) n^{-jδ} d(v).
	nJD := math.Pow(float64(n), -float64(j)/float64(dc.K))
	n3d := math.Pow(float64(n), 3/float64(dc.K))
	invI = InvariantCheck{Name: "Lemma17: d_Qj(v) <= (1+o(1))n^{-jδ}d(v)"}
	invI.merge(parallel.MapReduce(workers, n, parallel.SerialWork, InvariantCheck{}, func(lo, hi int) InvariantCheck {
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
	invII.merge(parallel.MapReduce(workers, n, parallel.SerialWork, InvariantCheck{}, func(lo, hi int) InvariantCheck {
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

// merge folds a per-shard partial into c. Counts add and WorstRatio is a
// max, so the sharded invariant audits produce the same summary as the
// serial scan regardless of worker count.
func (c *InvariantCheck) merge(part InvariantCheck) {
	c.Checked += part.Checked
	c.Violated += part.Violated
	if part.WorstRatio > c.WorstRatio {
		c.WorstRatio = part.WorstRatio
	}
}

// mergeChecks is merge as a fold function for parallel.MapReduce.
func mergeChecks(acc, part InvariantCheck) InvariantCheck {
	acc.merge(part)
	return acc
}

// sameLayout fails unless got and want lay out the same stage: the same
// threshold and γ, items, runs, group kinds and acceptance windows.
func sameLayout(t *testing.T, what string, got, want *stageItems) {
	t.Helper()
	if got.th != want.th || got.gamma != want.gamma || got.groups != want.groups {
		t.Fatalf("%s: th %d, γ %d, %d groups; reference %d, %d, %d", what,
			got.th, got.gamma, got.groups, want.th, want.gamma, want.groups)
	}
	if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.w, want.w) {
		t.Fatalf("%s: the items' keys or weights differ from the reference's", what)
	}
	if !slices.Equal(got.idx, want.idx) || !slices.Equal(got.ends, want.ends) {
		t.Fatalf("%s: runs differ from the reference's (%d/%d item slots, %d/%d runs)", what,
			len(got.idx), len(want.idx), len(got.ends), len(want.ends))
	}
	if !slices.Equal(got.count, want.count) || !slices.Equal(got.weighted, want.weighted) {
		t.Fatalf("%s: run kinds differ from the reference's", what)
	}
	if !slices.Equal(got.lo, want.lo) || !slices.Equal(got.hi, want.hi) || !slices.Equal(got.wLo, want.wLo) {
		t.Fatalf("%s: acceptance windows differ from the reference's", what)
	}
}

// sameAudits fails unless the list audits, the reference audits and the
// wrapper's stage report agree on both invariants.
func sameAudits(t *testing.T, what string, invI, invII, refI, refII InvariantCheck, st StageReport) {
	t.Helper()
	if invI != refI || invII != refII {
		t.Fatalf("%s: audits %v / %v, reference %v / %v", what, invI, invII, refI, refII)
	}
	if invI != st.InvariantI || invII != st.InvariantII {
		t.Fatalf("%s: audits %v / %v, the wrapper reported %v / %v", what, invI, invII, st.InvariantI, st.InvariantII)
	}
}

// TestListChainMatchesCSRChain replays the wrappers' edge and node chains
// on five generator families at Parallelism 1/2/8 and pins every stage of
// the list chain to the layouts and audits it replaced: edgeStageItems to
// the CSR-slot layout, nodeStageItems to the mask layout, and the list
// audits to the sharded CSR and mask audits and to the wrapper's stage
// reports. Each stage runs through runStage on the list layout and must
// reproduce the wrapper's report, and the chain must end at the wrapper's
// E* and Q'.
func TestListChainMatchesCSRChain(t *testing.T) {
	edgeStages, nodeStages, typeB := 0, 0, 0
	for _, family := range []string{"gnm", "powerlaw", "regular", "star", "caterpillar"} {
		g, err := gen.ByName(family, 512, 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/p%d", family, par), func(t *testing.T) {
				p := params()
				p.Parallelism = par
				dc := core.NewDegreeClasses(n, p.InvDelta)
				sc, ref := scratch.New(), scratch.New()

				er := SparsifyEdges(g, p, costModel(g, p))
				dE0, xCount := edgeCounts(sc, n, er.E0, er.B, er.Deg)
				wantD, wantX := csrEdgeAuditRefs(ref, graph.FromEdges(n, er.E0), er.E0, er.B, er.Deg)
				if !slices.Equal(dE0, wantD) || !slices.Equal(xCount, wantX) {
					t.Fatal("edge audit references differ from the CSR ones")
				}
				cur := er.E0
				for j, st := range er.Stages {
					j++
					what := fmt.Sprintf("edge stage %d", j)
					items := edgeStageItems(sc, n, cur, er.B, er.Deg, dc, p, j)
					sameLayout(t, what, items, csrEdgeStageItems(ref, graph.FromEdges(n, cur), cur, er.B, er.Deg, dc, p, j))
					typeB += len(items.ends) - n
					next, report, canceled := runStage(items, cur, sc.EdgesCap(len(cur)+1), p, j, costModel(g, p))
					if canceled {
						t.Fatalf("%s: canceled", what)
					}
					invI, invII := auditEdgeStage(sc, n, next, er.B, er.Deg, dE0, xCount, dc, p, j)
					refI, refII := csrAuditEdgeStage(graph.FromEdges(n, next), er.B, er.Deg, wantD, wantX, dc, p, j)
					sameAudits(t, what, invI, invII, refI, refII, st)
					report.InvariantI, report.InvariantII = st.InvariantI, st.InvariantII
					if report != st {
						t.Fatalf("%s: report %+v, the wrapper's %+v", what, report, st)
					}
					cur = slices.Clone(next)
					edgeStages++
				}
				if !er.UsedFallback && !slices.Equal(cur, er.EStarEdges) {
					t.Fatal("the replayed edge chain does not end at E*")
				}

				nr := SparsifyNodes(g, p, costModel(g, p))
				invDeg := make([]float64, n)
				for v := range invDeg {
					invDeg[v] = 1 / float64(nr.Deg[v])
				}
				q := maskList(nr.Q0)
				for j, st := range nr.Stages {
					j++
					what := fmt.Sprintf("node stage %d", j)
					mask := make([]bool, n)
					for _, v := range q {
						mask[v] = true
					}
					items := nodeStageItems(sc, g, q, nr.B, invDeg, dc, p, nr.ClassIndex, j)
					sameLayout(t, what, items, maskNodeStageItems(ref, g, mask, nr.B, invDeg, dc, p, nr.ClassIndex, j))
					next, report, canceled := runStage(items, q, sc.NodeIDsCap(len(q)+1), p, j, costModel(g, p))
					if canceled {
						t.Fatalf("%s: canceled", what)
					}
					nextMask := make([]bool, n)
					for _, v := range next {
						nextMask[v] = true
					}
					invI, invII := auditNodeStage(sc, g, next, nr.B, invDeg, dc, p, j)
					refI, refII := maskAuditNodeStage(g, nextMask, nr.B, invDeg, dc, p, j)
					sameAudits(t, what, invI, invII, refI, refII, st)
					report.InvariantI, report.InvariantII = st.InvariantI, st.InvariantII
					if report != st {
						t.Fatalf("%s: report %+v, the wrapper's %+v", what, report, st)
					}
					q = slices.Clone(next)
					nodeStages++
				}
				if !nr.UsedFallback && !slices.Equal(q, nr.QList) {
					t.Fatal("the replayed node chain does not end at Q'")
				}
			})
		}
	}
	t.Logf("%d edge stages (%d type-B runs) and %d node stages compared", edgeStages, typeB, nodeStages)
	if edgeStages < 10 || nodeStages < 10 || typeB == 0 {
		t.Fatalf("comparison too weak: %d edge stages, %d type-B runs, %d node stages", edgeStages, typeB, nodeStages)
	}
}
