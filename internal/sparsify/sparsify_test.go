package sparsify

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

func params() core.Params {
	return core.DefaultParams()
}

// costModel returns the cost model of a solve of g under p, the one every
// solve charges; its S sets the stage searches' batch size.
func costModel(g *graph.Graph, p core.Params) *simcost.Model {
	return simcost.New(g.N(), g.M(), p.Epsilon)
}

// denseGraph has average degree ~64 at n=2048, putting the heavy class well
// above i=4 so the stage machinery actually runs.
func denseGraph() *graph.Graph {
	return gen.GNM(2048, 2048*32, 7)
}

func TestSparsifyEdgesCorollary8(t *testing.T) {
	g := denseGraph()
	p := params()
	res := SparsifyEdges(g, p, costModel(g, p))
	// Corollary 8: Σ_{v∈B} d(v) >= δ/2 |E|.
	minW := int64(p.Delta() / 2 * float64(g.M()))
	if res.BWeight < minW {
		t.Errorf("BWeight = %d < δ|E|/2 = %d", res.BWeight, minW)
	}
	if res.ClassIndex < 1 || res.ClassIndex > p.InvDelta {
		t.Errorf("class index %d out of range", res.ClassIndex)
	}
}

// inE0 reports whether the edge e belongs to E0 = ∪_{v∈B} X(v).
func inE0(b []bool, deg []int, e graph.Edge) bool {
	return (b[e.U] && inXof(deg, e.U, e.V)) || (b[e.V] && inXof(deg, e.V, e.U))
}

func TestSparsifyEdgesE0Membership(t *testing.T) {
	g := denseGraph()
	res := SparsifyEdges(g, params(), costModel(g, params()))
	deg := g.DegreesInto(make([]int, g.N()))
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
	res := SparsifyEdges(g, params(), costModel(g, params()))
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
	res := SparsifyEdges(g, params(), costModel(g, params()))
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

// requireAudited fails unless stages is non-empty and every stage's two
// audits checked at least one node: a zero InvariantCheck reads Ok, so an
// audit that never ran would otherwise pass the bounds below.
func requireAudited(t *testing.T, stages []StageReport) {
	t.Helper()
	if len(stages) == 0 {
		t.Fatal("no stage ran, so no audit was checked")
	}
	for _, st := range stages {
		if st.InvariantI.Checked == 0 || st.InvariantII.Checked == 0 {
			t.Errorf("stage %d: an audit checked no node: %s; %s", st.Stage, st.InvariantI, st.InvariantII)
		}
	}
}

func TestSparsifyEdgesInvariantsHold(t *testing.T) {
	g := denseGraph()
	res := SparsifyEdges(g, params(), costModel(g, params()))
	requireAudited(t, res.Stages)
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
	res := SparsifyEdges(g, p, costModel(g, p))
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
	res := SparsifyEdges(g, params(), costModel(g, params()))
	if len(res.Stages) != 0 {
		t.Errorf("low-degree graph ran %d stages", len(res.Stages))
	}
	if res.EStar.M() != len(res.E0) {
		t.Errorf("E* (%d edges) != E0 (%d edges)", res.EStar.M(), len(res.E0))
	}
}

func TestSparsifyEdgesDeterministic(t *testing.T) {
	g := denseGraph()
	a := SparsifyEdges(g, params(), costModel(g, params()))
	b := SparsifyEdges(g, params(), costModel(g, params()))
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
	// The two Lemma 4 sorts and the class scan come before any stage.
	if least := 2*4 + 3; st.Rounds < least {
		t.Errorf("%d rounds charged, want at least %d", st.Rounds, least)
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
	res := SparsifyEdges(g, params(), costModel(g, params()))
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
	res := SparsifyNodes(g, p, costModel(g, p))
	minW := int64(p.Delta() / 2 * float64(g.M()))
	if res.BWeight < minW {
		t.Errorf("BWeight = %d < δ|E|/2 = %d", res.BWeight, minW)
	}
}

func TestSparsifyNodesQSubsetOfQ0(t *testing.T) {
	g := denseGraph()
	res := SparsifyNodes(g, params(), costModel(g, params()))
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
	res := SparsifyNodes(g, params(), costModel(g, params()))
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
	res := SparsifyNodes(g, params(), costModel(g, params()))
	requireAudited(t, res.Stages)
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
	res := SparsifyNodes(g, p, costModel(g, p))
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
	a := SparsifyNodes(g, params(), costModel(g, params()))
	b := SparsifyNodes(g, params(), costModel(g, params()))
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
	res := SparsifyNodes(g, params(), costModel(g, params()))
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
	res := SparsifyNodes(g, p, costModel(g, p))
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

// refGroup is one logical machine of the expanded-key stage layout: a
// contiguous range of refStage.keys. kind 0 = type A (edge stage) or type Q
// (node stage), kind 1 = type B.
type refGroup struct {
	start, end int
	kind       uint8
}

// refStage is the expanded-key stage scoring that stageItems is pinned to.
// Every group's keys lie back to back, so an item is hashed once for every
// group that holds it, and group gi passes when its statistic — the
// sub-threshold count, or for weighted groups the sub-threshold weight sum
// — lies in [lo[gi], hi[gi]]. weightsOf is aligned with keys and nil for
// edge stages, whose groups all count.
type refStage struct {
	th        uint64
	keys      []uint64
	weightsOf []float64
	groups    []refGroup
	lo, hi    []float64
}

// appendGroups lays one run of keys out as γ-chunk groups of the given
// kind. weights is nil for count-only stages.
func (f *refStage) appendGroups(keys []uint64, weights []float64, kind uint8, gamma int) {
	for lo := 0; lo < len(keys); lo += gamma {
		hi := min(lo+gamma, len(keys))
		f.groups = append(f.groups, refGroup{start: len(f.keys) + lo, end: len(f.keys) + hi, kind: kind})
	}
	f.keys = append(f.keys, keys...)
	if weights != nil {
		f.weightsOf = append(f.weightsOf, weights...)
	}
}

// countGood is the stage goodness count over a full z row of the expanded
// keys, from the definition.
func countGood(f *refStage, z []uint64) int64 {
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

// score hashes the expanded keys under seed and counts the good groups.
func (f *refStage) score(ev *hashfam.Evaluator, seed []uint64) int64 {
	return countGood(f, ev.EvalKeys(seed, f.keys, make([]uint64, len(f.keys))))
}

// refEdgeStage lays out stage j of the edge chain with expanded keys: type
// A groups chunk each node's incident E_{j-1} edges, type B groups the
// X(v) ∩ E_{j-1} edges of each v ∈ B, and every group holds its own copy
// of its edges' keys, with a two-sided Chernoff window on its count.
func refEdgeStage(curG *graph.Graph, b []bool, deg []int, dc *core.DegreeClasses, p core.Params, j int) *refStage {
	n := curG.N()
	gamma := dc.GroupSize()
	fam := core.KWiseFamily(n, p.KWise)
	f := &refStage{th: core.StageThreshold(fam.P(), n, dc.K)}
	sampleProb := float64(f.th) / float64(fam.P())
	edgeKey := func(v, u graph.NodeID) uint64 {
		return core.SlotKey(graph.Edge{U: v, V: u}.Key(n), j, n)
	}
	var flat []uint64
	for v := 0; v < n; v++ {
		flat = flat[:0]
		for _, u := range curG.Neighbors(graph.NodeID(v)) {
			flat = append(flat, edgeKey(graph.NodeID(v), u))
		}
		f.appendGroups(flat, nil, 0, gamma)
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
		f.appendGroups(flat, nil, 1, gamma)
	}
	for _, gr := range f.groups {
		ex := gr.end - gr.start
		mu := float64(ex) * sampleProb
		dev := p.Slack * dc.DevTerm(ex)
		f.lo, f.hi = append(f.lo, mu-dev), append(f.hi, mu+dev)
	}
	return f
}

// refNodeStage lays out stage j of the node chain (class i) with expanded
// keys: type-Q groups chunk N(v) ∩ Q_{j-1} for v ∈ Q_{j-1} and bound their
// count from above, type-B groups chunk the same neighbours for v ∈ B and
// bound their 1/d weight from below.
func refNodeStage(g *graph.Graph, cur, b []bool, deg []int, dc *core.DegreeClasses, p core.Params, i, j int) *refStage {
	n := g.N()
	gamma := dc.GroupSize()
	fam := core.KWiseFamily(n, p.KWise)
	f := &refStage{th: core.StageThreshold(fam.P(), n, dc.K), weightsOf: []float64{}}
	sampleProb := float64(f.th) / float64(fam.P())
	var keys []uint64
	var weights []float64
	run := func(v int, kind uint8) {
		keys, weights = keys[:0], weights[:0]
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if cur[u] {
				keys = append(keys, core.SlotKey(uint64(u), j, n))
				weights = append(weights, 1/float64(deg[u]))
			}
		}
		f.appendGroups(keys, weights, kind, gamma)
	}
	for v := 0; v < n; v++ {
		if cur[v] {
			run(v, 0)
		}
	}
	for v := 0; v < n; v++ {
		if b[v] {
			run(v, 1)
		}
	}
	devB := math.Pow(float64(n), (0.9-float64(i))/float64(dc.K))
	for _, gr := range f.groups {
		ex := gr.end - gr.start
		if gr.kind == 0 {
			mu := float64(ex) * sampleProb
			dev := p.Slack * dc.DevTerm(ex)
			f.lo, f.hi = append(f.lo, math.Inf(-1)), append(f.hi, mu+dev)
			continue
		}
		var total float64
		for t := gr.start; t < gr.end; t++ {
			total += f.weightsOf[t]
		}
		dev := p.Slack * devB * math.Sqrt(float64(ex))
		f.lo, f.hi = append(f.lo, sampleProb*total-dev), append(f.hi, math.Inf(1))
	}
	return f
}

// stageSeeds returns the candidates a stage comparison scores: the first
// seeds of fam's enumeration, which the searches try first, and seeds with
// uniformly random coefficients.
func stageSeeds(src *detrand.Source, fam hashfam.Family) [][]uint64 {
	var seeds [][]uint64
	enum := fam.Enumerate()
	for len(seeds) < 8 && enum.Next() {
		seeds = append(seeds, append([]uint64(nil), enum.Seed()...))
	}
	for len(seeds) < 16 {
		seed := make([]uint64, fam.SeedLen())
		for i := range seed {
			seed[i] = src.Uint64n(fam.P())
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// stageTally counts the compared stages and seeds, and the seeds whose
// groups were neither all good nor all bad.
type stageTally struct{ stages, seeds, mixed int }

// compareItems scores every candidate through the hashed-once items and
// the expanded-key reference and fails on the first difference.
func (tl *stageTally) compareItems(t *testing.T, what string, items *stageItems, ref *refStage, seeds [][]uint64) {
	t.Helper()
	if items.groups != len(ref.groups) {
		t.Fatalf("%s: %d groups, expanded keys %d", what, items.groups, len(ref.groups))
	}
	for _, seed := range seeds {
		got := items.good(items.ev.EvalKeys(seed, items.keys, make([]uint64, len(items.keys))))
		want := ref.score(items.ev, seed)
		if got != want {
			t.Fatalf("%s, seed %v: %d good groups, expanded keys %d", what, seed, got, want)
		}
		tl.seeds++
		if want > 0 && want < int64(len(ref.groups)) {
			tl.mixed++
		}
	}
}

// compareMissSearch runs a stage search of a solve of g that finds no
// all-good seed (p's windows are tightened until groups fail), capped at 64
// candidates, so every candidate is hashed into the stage's row and scored:
// the result must be the expanded-key search's.
func compareMissSearch(t *testing.T, what string, g *graph.Graph, items *stageItems, ref *refStage, p core.Params) {
	t.Helper()
	p.MaxSeedsPerSearch = 64
	got := items.search(p, costModel(g, p))
	want := p.SeedSearch(items.ev.Family(), func(seed []uint64) int64 { return ref.score(items.ev, seed) }, int64(len(ref.groups)), "ref", costModel(g, p), nil)
	if got.Found {
		t.Fatalf("%s: the tightened search found an all-good seed; the miss path went unexercised", what)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: missed search %+v, expanded keys %+v", what, got, want)
	}
}

// replayEdgeChain reruns the stage chain of SparsifyEdges(g, p) with the
// expanded-key reference: at every stage the hashed-once items must score
// each candidate as the reference does, at p and under windows tightened
// until groups fail, and the reference's search and apply must reproduce
// the stage's report. The first stage also runs a missed search.
func (tl *stageTally) replayEdgeChain(t *testing.T, src *detrand.Source, g *graph.Graph, p core.Params) {
	res := SparsifyEdges(g, p, costModel(g, p))
	n := g.N()
	dc := core.NewDegreeClasses(n, p.InvDelta)
	fam := core.KWiseFamily(n, p.KWise)
	ev := hashfam.NewEvaluator(fam)
	tight := p
	tight.Slack = 0.05
	sc := scratch.New()
	cur := res.E0
	for j, st := range res.Stages {
		j++
		sc.Reset()
		curG := graph.FromEdges(n, cur)
		ref := refEdgeStage(curG, res.B, res.Deg, dc, p, j)
		seeds := stageSeeds(src, fam)
		what := fmt.Sprintf("edge stage %d", j)
		tl.compareItems(t, what, edgeStageItems(sc, n, cur, res.B, res.Deg, dc, p, j), ref, seeds)
		tightItems := edgeStageItems(sc, n, cur, res.B, res.Deg, dc, tight, j)
		tightRef := refEdgeStage(curG, res.B, res.Deg, dc, tight, j)
		tl.compareItems(t, what+" (tight)", tightItems, tightRef, seeds)
		if j == 1 {
			compareMissSearch(t, what, g, tightItems, tightRef, tight)
		}

		found := p.SeedSearch(fam, func(seed []uint64) int64 { return ref.score(ev, seed) }, int64(len(ref.groups)), "ref", costModel(g, p), nil)
		z := ev.EvalKeys(found.Seed, core.SlotKeysInto(nil, cur, j, n), make([]uint64, len(cur)))
		var next []graph.Edge
		for t, e := range cur {
			if z[t] < ref.th {
				next = append(next, e)
			}
		}
		want := StageReport{Stage: j, ItemsBefore: len(cur), ItemsAfter: len(next), Groups: len(ref.groups),
			GoodGroups: int(found.Value), SeedsTried: found.SeedsTried, SeedFound: found.Found}
		st.InvariantI, st.InvariantII = InvariantCheck{}, InvariantCheck{}
		if st != want {
			t.Fatalf("%s: report %+v, expanded keys %+v", what, st, want)
		}
		cur = next
		tl.stages++
	}
}

// replayNodeChain is replayEdgeChain for SparsifyNodes(g, p).
func (tl *stageTally) replayNodeChain(t *testing.T, src *detrand.Source, g *graph.Graph, p core.Params) {
	res := SparsifyNodes(g, p, costModel(g, p))
	n := g.N()
	dc := core.NewDegreeClasses(n, p.InvDelta)
	fam := core.KWiseFamily(n, p.KWise)
	ev := hashfam.NewEvaluator(fam)
	tight := p
	tight.Slack = 0.05
	invDeg := make([]float64, n)
	for v := range invDeg {
		invDeg[v] = 1 / float64(res.Deg[v])
	}
	sc := scratch.New()
	cur := append([]bool(nil), res.Q0...)
	for j, st := range res.Stages {
		j++
		sc.Reset()
		ref := refNodeStage(g, cur, res.B, res.Deg, dc, p, res.ClassIndex, j)
		seeds := stageSeeds(src, fam)
		what := fmt.Sprintf("node stage %d", j)
		items := nodeStageItems(sc, g, maskList(cur), res.B, invDeg, dc, p, res.ClassIndex, j)
		tl.compareItems(t, what, items, ref, seeds)
		items = nodeStageItems(sc, g, maskList(cur), res.B, invDeg, dc, tight, res.ClassIndex, j)
		tightRef := refNodeStage(g, cur, res.B, res.Deg, dc, tight, res.ClassIndex, j)
		tl.compareItems(t, what+" (tight)", items, tightRef, seeds)
		if j == 1 {
			compareMissSearch(t, what, g, items, tightRef, tight)
		}

		found := p.SeedSearch(fam, func(seed []uint64) int64 { return ref.score(ev, seed) }, int64(len(ref.groups)), "ref", costModel(g, p), nil)
		next := make([]bool, n)
		for v := range next {
			next[v] = cur[v] && fam.Eval(found.Seed, core.SlotKey(uint64(v), j, n)) < ref.th
		}
		want := StageReport{Stage: j, ItemsBefore: CountMask(cur), ItemsAfter: CountMask(next), Groups: len(ref.groups),
			GoodGroups: int(found.Value), SeedsTried: found.SeedsTried, SeedFound: found.Found}
		st.InvariantI, st.InvariantII = InvariantCheck{}, InvariantCheck{}
		if st != want {
			t.Fatalf("%s: report %+v, expanded keys %+v", what, st, want)
		}
		cur = next
		tl.stages++
	}
}

// TestStageItemsMatchExpandedKeys pins the stage searches' objective —
// every item hashed once, every group a chunk of a run of item indices —
// to the expanded-key reference, on the real edge and node stage chains of
// six generator families, three generator seeds each, at Parallelism
// 1/2/8. Each stage is compared on the first seeds of the enumeration and
// on random seeds, at the default slack and under tightened windows whose
// groups fail, and the reference's own search and apply must reproduce the
// stage report.
func TestStageItemsMatchExpandedKeys(t *testing.T) {
	src := detrand.New(23)
	var tl stageTally
	for _, family := range []string{"gnm", "gnp", "powerlaw", "regular", "star", "caterpillar"} {
		for _, seed := range []uint64{1, 2, 3} {
			g, err := gen.ByName(family, 512, 24, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/seed%d/p%d", family, seed, par), func(t *testing.T) {
					p := params()
					p.Parallelism = par
					tl.replayEdgeChain(t, src, g, p)
					tl.replayNodeChain(t, src, g, p)
				})
			}
		}
	}
	t.Logf("%d stages, %d seeds compared, %d with mixed good and bad groups", tl.stages, tl.seeds, tl.mixed)
	if tl.stages < 100 || tl.mixed < tl.seeds/4 {
		t.Fatalf("comparison too weak: %d stages, %d of %d seeds mixed", tl.stages, tl.mixed, tl.seeds)
	}
}

// randomStage draws a stage layout and its expanded-key twin: 1..200 items,
// γ in 1..12, and 1..60 runs of 0..40 random item indices. An edge stage
// (weighted false) judges every chunk by a two-sided count window around
// the mean; in a node stage each run carries count groups, weighted groups
// or both, count windows bound from above and weighted groups bound their
// sum of 1/d weights from below, with the open side at ±Inf. z is drawn
// from [0, 2·th), so each item falls below th with probability 1/2. The
// twin's keys are the item values themselves, so they are its z row.
func randomStage(src *detrand.Source, weighted bool, th uint64) (*stageItems, []uint64, *refStage) {
	items := &stageItems{th: th, gamma: 1 + src.Intn(12)}
	z := make([]uint64, 1+src.Intn(200))
	for t := range z {
		z[t] = src.Uint64n(2 * th)
	}
	items.lo = make([]float64, items.gamma+1)
	items.hi = make([]float64, items.gamma+1)
	for ex := 1; ex <= items.gamma; ex++ {
		size := float64(ex)
		dev := src.Float64() * math.Sqrt(size)
		items.lo[ex], items.hi[ex] = size/2-dev, size/2+dev
		if weighted {
			items.lo[ex] = math.Inf(-1)
		}
	}
	if weighted {
		items.w = make([]float64, len(z))
		for t := range items.w {
			items.w[t] = 1 / float64(1+src.Intn(50))
		}
	}
	for r := 1 + src.Intn(60); r > 0; r-- {
		for l := src.Intn(41); l > 0; l-- {
			items.idx = append(items.idx, int32(src.Intn(len(z))))
		}
		items.ends = append(items.ends, int32(len(items.idx)))
		if weighted {
			kind := 1 + src.Intn(3)
			items.count = append(items.count, kind&1 != 0)
			items.weighted = append(items.weighted, kind&2 != 0)
		}
	}

	ref := &refStage{th: th}
	start := int32(0)
	for r, end := range items.ends {
		for lo := start; lo < end; lo += int32(items.gamma) {
			chunk := items.idx[lo:min(lo+int32(items.gamma), end)]
			var keys []uint64
			var weights []float64
			for _, t := range chunk {
				keys = append(keys, z[t])
				if weighted {
					weights = append(weights, items.w[t])
				}
			}
			if !weighted || items.count[r] {
				ref.lo, ref.hi = append(ref.lo, items.lo[len(chunk)]), append(ref.hi, items.hi[len(chunk)])
				ref.appendGroups(keys, weights, 0, items.gamma)
				items.groups++
			}
			if weighted && items.weighted[r] {
				var total float64
				for _, w := range weights {
					total += w
				}
				bound := total/2 - src.Float64()*math.Sqrt(float64(len(chunk)))/8
				items.wLo = append(items.wLo, bound)
				ref.lo, ref.hi = append(ref.lo, bound), append(ref.hi, math.Inf(1))
				ref.appendGroups(keys, weights, 1, items.gamma)
				items.groups++
			}
		}
		start = end
	}
	return items, z, ref
}

// TestStageFoldMatchesCountGood pins the gather fold of the stage search —
// every group a γ-chunk of a run of item indices into one z row — to the
// full-row count over the expanded layout, on random runs (empty runs,
// ragged tails, items shared by many runs), for edge and node stages alike.
func TestStageFoldMatchesCountGood(t *testing.T) {
	src := detrand.New(17)
	const th = 1 << 40
	for _, tc := range []struct {
		name     string
		weighted bool
	}{{"edge", false}, {"node", true}} {
		t.Run(tc.name, func(t *testing.T) {
			mixed := 0
			for trial := 0; trial < 400; trial++ {
				items, z, ref := randomStage(src, tc.weighted, th)
				if items.groups != len(ref.groups) {
					t.Fatalf("trial %d: %d groups, expanded %d", trial, items.groups, len(ref.groups))
				}
				want := countGood(ref, ref.keys)
				if want > 0 && want < int64(len(ref.groups)) {
					mixed++
				}
				if got := items.good(z); got != want {
					t.Fatalf("trial %d: gather fold counted %d good groups, countGood %d", trial, got, want)
				}
			}
			if mixed < 100 {
				t.Fatalf("only %d of 400 layouts mixed good and bad groups", mixed)
			}
		})
	}
}

func BenchmarkSparsifyEdges(b *testing.B) {
	g := denseGraph()
	p := params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SparsifyEdges(g, p, costModel(g, p))
	}
}

func BenchmarkSparsifyNodes(b *testing.B) {
	g := denseGraph()
	p := params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SparsifyNodes(g, p, costModel(g, p))
	}
}

// Ok reports whether no node violated the slack-adjusted bound.
func (c InvariantCheck) Ok() bool { return c.Violated == 0 }

// CountMask returns the number of set entries of mask.
func CountMask(mask []bool) int {
	c := 0
	for _, m := range mask {
		if m {
			c++
		}
	}
	return c
}

// maskList returns the ids v with mask[v] set, in ascending order.
func maskList(mask []bool) []graph.NodeID {
	var ids []graph.NodeID
	for v, m := range mask {
		if m {
			ids = append(ids, graph.NodeID(v))
		}
	}
	return ids
}
