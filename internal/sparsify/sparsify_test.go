package sparsify

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
	"repro/internal/simcost"
)

func params() core.Params {
	return core.DefaultParams()
}

// denseGraph has average degree ~64 at n=2048, putting the heavy class well
// above i=4 so the stage machinery actually runs.
func denseGraph() *graph.Graph {
	return gen.GNM(2048, 2048*32, 7)
}

func TestSparsifyEdgesCorollary8(t *testing.T) {
	g := denseGraph()
	p := params()
	res := SparsifyEdges(g, p, nil)
	// Corollary 8: Σ_{v∈B} d(v) >= δ/2 |E|.
	minW := int64(p.Delta() / 2 * float64(g.M()))
	if res.BWeight < minW {
		t.Errorf("BWeight = %d < δ|E|/2 = %d", res.BWeight, minW)
	}
	if res.ClassIndex < 1 || res.ClassIndex > p.InvDelta {
		t.Errorf("class index %d out of range", res.ClassIndex)
	}
}

func TestSparsifyEdgesE0Membership(t *testing.T) {
	g := denseGraph()
	res := SparsifyEdges(g, params(), nil)
	deg := g.Degrees()
	for _, e := range res.E0 {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("E0 edge %v not in G", e)
		}
		if !inE0(res.B, deg, e) {
			t.Fatalf("E0 edge %v fails the ∪X(v) membership", e)
		}
	}
	// Every B-node keeps its whole X(v) inside E0.
	for v := 0; v < g.N(); v++ {
		if !res.B[v] {
			continue
		}
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if deg[u] <= deg[v] {
				if !inE0(res.B, deg, graph.Edge{U: graph.NodeID(v), V: u}.Canon()) {
					t.Fatalf("X(%d) edge to %d missing from E0", v, u)
				}
			}
		}
	}
}

func TestSparsifyEdgesEStarSubsetAndStages(t *testing.T) {
	g := denseGraph()
	res := SparsifyEdges(g, params(), nil)
	if core.StageCount(res.ClassIndex) == 0 {
		t.Skip("workload landed in a low class; stage path not exercised")
	}
	if len(res.Stages) != core.StageCount(res.ClassIndex) {
		t.Errorf("ran %d stages, want %d", len(res.Stages), core.StageCount(res.ClassIndex))
	}
	if res.UsedFallback {
		t.Log("fallback used (acceptable at laptop scale)")
	}
	// E* ⊆ E0 ⊆ E and items shrink monotonically.
	e0set := map[graph.Edge]bool{}
	for _, e := range res.E0 {
		e0set[e] = true
	}
	for _, e := range res.EStar.Edges() {
		if !res.UsedFallback && !e0set[e] {
			t.Fatalf("E* edge %v not in E0", e)
		}
	}
	prev := len(res.E0)
	for _, st := range res.Stages {
		if st.ItemsBefore != prev {
			t.Errorf("stage %d starts at %d items, expected %d", st.Stage, st.ItemsBefore, prev)
		}
		if st.ItemsAfter > st.ItemsBefore {
			t.Errorf("stage %d grew the edge set", st.Stage)
		}
		prev = st.ItemsAfter
	}
}

func TestSparsifyEdgesAllGroupsGood(t *testing.T) {
	g := denseGraph()
	res := SparsifyEdges(g, params(), nil)
	for _, st := range res.Stages {
		if !st.SeedFound {
			t.Errorf("stage %d: all-good seed not found (%d/%d good, %d tried)",
				st.Stage, st.GoodGroups, st.Groups, st.SeedsTried)
		}
		if st.GoodGroups != st.Groups {
			t.Errorf("stage %d: %d/%d groups good under selected seed", st.Stage, st.GoodGroups, st.Groups)
		}
	}
}

func TestSparsifyEdgesInvariantsHold(t *testing.T) {
	g := denseGraph()
	res := SparsifyEdges(g, params(), nil)
	for _, st := range res.Stages {
		if !st.InvariantI.Ok() {
			t.Errorf("stage %d %s", st.Stage, st.InvariantI)
		}
		// The lower-bound invariant admits binomial-tail outliers at laptop
		// scale (the paper's union bound over them is asymptotic): tolerate
		// up to 1% of checked nodes.
		if allowed := st.InvariantII.Checked/100 + 1; st.InvariantII.Violated > allowed {
			t.Errorf("stage %d %s (> %d allowed)", st.Stage, st.InvariantII, allowed)
		}
	}
}

func TestSparsifyEdgesMaxDegree(t *testing.T) {
	g := denseGraph()
	p := params()
	res := SparsifyEdges(g, p, nil)
	if res.UsedFallback {
		t.Skip("fallback used; degree bound does not apply")
	}
	// §3.3 property (i): d_{E*}(v) <= 2n^{4δ}, checked with the slack factor.
	bound := int(p.Slack) * MaxDegreeBound(g.N(), p.InvDelta)
	if got := res.EStar.MaxDegree(); got > bound {
		t.Errorf("max E* degree %d > slack-adjusted bound %d", got, bound)
	}
}

func TestSparsifyEdgesLowClassSkipsStages(t *testing.T) {
	// Grid: Δ = 4, all degrees in class 1..4 ⇒ E* = E0 verbatim.
	g := gen.Grid2D(40, 40)
	res := SparsifyEdges(g, params(), nil)
	if len(res.Stages) != 0 {
		t.Errorf("low-degree graph ran %d stages", len(res.Stages))
	}
	if res.EStar.M() != len(res.E0) {
		t.Errorf("E* (%d edges) != E0 (%d edges)", res.EStar.M(), len(res.E0))
	}
}

func TestSparsifyEdgesDeterministic(t *testing.T) {
	g := denseGraph()
	a := SparsifyEdges(g, params(), nil)
	b := SparsifyEdges(g, params(), nil)
	if a.ClassIndex != b.ClassIndex || a.BWeight != b.BWeight || a.EStar.M() != b.EStar.M() {
		t.Fatalf("nondeterministic: %d/%d/%d vs %d/%d/%d",
			a.ClassIndex, a.BWeight, a.EStar.M(), b.ClassIndex, b.BWeight, b.EStar.M())
	}
	ea, eb := a.EStar.Edges(), b.EStar.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestSparsifyEdgesChargesModel(t *testing.T) {
	g := denseGraph()
	model := simcost.New(g.N(), g.M(), 0.5)
	SparsifyEdges(g, params(), model)
	st := model.Stats()
	if st.Rounds == 0 {
		t.Error("no rounds charged")
	}
	if st.RoundsByLabel["sparsify.degrees"] == 0 {
		t.Error("degree computation not charged")
	}
	if core.StageCount(5) > 0 && st.SeedBatches == 0 {
		t.Error("no seed batches charged")
	}
}

func TestSparsifyEdgesStarGraph(t *testing.T) {
	// Star: the centre is the only X∩C_K node; E0 = all edges. The many
	// stages shrink E0 aggressively; fallback may trigger, but the result
	// must never be empty.
	g := gen.Star(2048)
	res := SparsifyEdges(g, params(), nil)
	if res.EStar.M() == 0 {
		t.Error("E* empty on star")
	}
	if !res.B[0] {
		t.Error("star centre not in B")
	}
}

func TestSparsifyNodesCorollary16(t *testing.T) {
	g := denseGraph()
	p := params()
	res := SparsifyNodes(g, p, nil)
	minW := int64(p.Delta() / 2 * float64(g.M()))
	if res.BWeight < minW {
		t.Errorf("BWeight = %d < δ|E|/2 = %d", res.BWeight, minW)
	}
}

func TestSparsifyNodesQSubsetOfQ0(t *testing.T) {
	g := denseGraph()
	res := SparsifyNodes(g, params(), nil)
	for v := range res.Q {
		if res.Q[v] && !res.Q0[v] {
			t.Fatalf("node %d in Q' but not Q0", v)
		}
	}
	if CountMask(res.Q) == 0 {
		t.Error("Q' empty")
	}
}

func TestSparsifyNodesStagesShrink(t *testing.T) {
	g := denseGraph()
	res := SparsifyNodes(g, params(), nil)
	prev := CountMask(res.Q0)
	for _, st := range res.Stages {
		if st.ItemsBefore != prev {
			t.Errorf("stage %d begins with %d, expected %d", st.Stage, st.ItemsBefore, prev)
		}
		if st.ItemsAfter > st.ItemsBefore {
			t.Errorf("stage %d grew Q", st.Stage)
		}
		if !st.SeedFound {
			t.Errorf("stage %d all-good seed not found (%d/%d)", st.Stage, st.GoodGroups, st.Groups)
		}
		prev = st.ItemsAfter
	}
}

func TestSparsifyNodesInvariants(t *testing.T) {
	g := denseGraph()
	res := SparsifyNodes(g, params(), nil)
	for _, st := range res.Stages {
		if !st.InvariantI.Ok() {
			t.Errorf("stage %d %s", st.Stage, st.InvariantI)
		}
		if allowed := st.InvariantII.Checked/100 + 1; st.InvariantII.Violated > allowed {
			t.Errorf("stage %d %s (> %d allowed)", st.Stage, st.InvariantII, allowed)
		}
	}
}

func TestSparsifyNodesInducedDegreeBound(t *testing.T) {
	g := denseGraph()
	p := params()
	res := SparsifyNodes(g, p, nil)
	if res.UsedFallback || len(res.Stages) == 0 {
		t.Skip("stage path not exercised")
	}
	bound := int(p.Slack) * MaxDegreeBound(g.N(), p.InvDelta)
	if got := res.QGraph.MaxDegree(); got > bound {
		t.Errorf("max Q' induced degree %d > %d", got, bound)
	}
}

func TestSparsifyNodesDeterministic(t *testing.T) {
	g := denseGraph()
	a := SparsifyNodes(g, params(), nil)
	b := SparsifyNodes(g, params(), nil)
	if a.ClassIndex != b.ClassIndex || CountMask(a.Q) != CountMask(b.Q) {
		t.Fatal("nondeterministic node sparsification")
	}
	for v := range a.Q {
		if a.Q[v] != b.Q[v] {
			t.Fatalf("Q' differs at node %d", v)
		}
	}
}

func TestSparsifyNodesLowDegreeGraph(t *testing.T) {
	g := gen.Grid2D(30, 30)
	res := SparsifyNodes(g, params(), nil)
	if len(res.Stages) != 0 {
		t.Errorf("grid ran %d node stages", len(res.Stages))
	}
	for v := range res.Q {
		if res.Q[v] != res.Q0[v] {
			t.Fatal("Q' != Q0 despite no stages")
		}
	}
}

func TestSparsifyNodesPowerLaw(t *testing.T) {
	g := gen.PowerLaw(2048, 2048*8, 2.5, 3)
	p := params()
	res := SparsifyNodes(g, p, nil)
	if res.BWeight <= 0 {
		t.Error("empty B on power-law graph")
	}
	if CountMask(res.Q) == 0 {
		t.Error("empty Q' on power-law graph")
	}
}

func TestInvariantCheckObserve(t *testing.T) {
	var c InvariantCheck
	c.observe(0.5)
	c.observe(1.5)
	c.observe(0.9)
	if c.Checked != 3 || c.Violated != 1 {
		t.Errorf("check = %+v", c)
	}
	if c.WorstRatio != 1.5 {
		t.Errorf("worst = %f", c.WorstRatio)
	}
	if c.Ok() {
		t.Error("Ok with a violation")
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

// countGood is the stage goodness count over a full z row, from the
// definition: a group is good iff its statistic — the sub-threshold count,
// or for weighted groups the sub-threshold weight sum — lies in
// [lo[gi], hi[gi]]. It is the reference stageFold.absorb is pinned to.
func countGood(f *stageFold, z []uint64) int64 {
	var good int64
	for gi, gr := range f.groups {
		var stat float64
		if f.weightsOf == nil || gr.kind == 0 {
			zc := 0
			for t := gr.start; t < gr.end; t++ {
				if z[t] < f.th {
					zc++
				}
			}
			stat = float64(zc)
		} else {
			for t := gr.start; t < gr.end; t++ {
				if z[t] < f.th {
					stat += f.weightsOf[t]
				}
			}
		}
		if stat >= f.lo[gi] && stat <= f.hi[gi] {
			good++
		}
	}
	return good
}

// randomStageFold draws a stage's groups and acceptance intervals: 1..60
// groups of 1..40 keys of both kinds. An edge stage (weighted false) judges
// every group by a two-sided count window around the mean; a node stage
// bounds type-Q counts from above and type-B sums of 1/d weights from below,
// with the open side at ±Inf. Keys fall below th with probability 1/2 when
// z is drawn from [0, 2·th).
func randomStageFold(src *detrand.Source, weighted bool, th uint64) *stageFold {
	f := &stageFold{th: th}
	keys := 0
	for g := 1 + src.Intn(60); g > 0; g-- {
		size := 1 + src.Intn(40)
		f.groups = append(f.groups, edgeGroup{start: keys, end: keys + size, kind: uint8(src.Intn(2))})
		keys += size
	}
	if weighted {
		f.weightsOf = make([]float64, keys)
		for t := range f.weightsOf {
			f.weightsOf[t] = 1 / float64(1+src.Intn(50))
		}
	}
	f.lo = make([]float64, len(f.groups))
	f.hi = make([]float64, len(f.groups))
	for gi, gr := range f.groups {
		size := float64(gr.end - gr.start)
		dev := src.Float64() * math.Sqrt(size)
		switch {
		case !weighted:
			f.lo[gi], f.hi[gi] = size/2-dev, size/2+dev
		case gr.kind == 0:
			f.lo[gi], f.hi[gi] = math.Inf(-1), size/2+dev
		default:
			var total float64
			for _, w := range f.weightsOf[gr.start:gr.end] {
				total += w
			}
			f.lo[gi], f.hi[gi] = total/2-dev/8, math.Inf(1)
		}
	}
	return f
}

// TestStageFoldMatchesCountGood pins the block-wise fold of the stage search
// to the full-row count: each random z row is absorbed in ragged block
// splits — single keys, blocks ending mid-group, blocks spanning several
// groups — and every split must close every group and reach countGood's
// total, for edge and node stages alike.
func TestStageFoldMatchesCountGood(t *testing.T) {
	src := detrand.New(17)
	const th = 1 << 40
	for _, tc := range []struct {
		name     string
		weighted bool
	}{{"edge", false}, {"node", true}} {
		t.Run(tc.name, func(t *testing.T) {
			mixed := 0
			for trial := 0; trial < 200; trial++ {
				f := randomStageFold(src, tc.weighted, th)
				z := make([]uint64, f.groups[len(f.groups)-1].end)
				for i := range z {
					z[i] = src.Uint64n(2 * th)
				}
				want := countGood(f, z)
				if want > 0 && want < int64(len(f.groups)) {
					mixed++
				}
				for _, maxBlock := range []int{1, 7, 64, hashfam.BlockKeyGrain, len(z)} {
					var c groupCursor
					for lo := 0; lo < len(z); {
						hi := min(len(z), lo+1+src.Intn(maxBlock))
						f.absorb(&c, z[lo:hi], lo, hi)
						lo = hi
					}
					if c.gi != len(f.groups) || c.good != want {
						t.Fatalf("trial %d, blocks <= %d: fold closed %d/%d groups with %d good, countGood %d",
							trial, maxBlock, c.gi, len(f.groups), c.good, want)
					}
				}
			}
			if mixed < 50 {
				t.Fatalf("only %d of 200 rows mixed good and bad groups", mixed)
			}
		})
	}
}

func BenchmarkSparsifyEdges(b *testing.B) {
	g := denseGraph()
	p := params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SparsifyEdges(g, p, nil)
	}
}

func BenchmarkSparsifyNodes(b *testing.B) {
	g := denseGraph()
	p := params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SparsifyNodes(g, p, nil)
	}
}
