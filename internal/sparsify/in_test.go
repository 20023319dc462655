package sparsify

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// Tests of the path the solvers run: SparsifyEdgesIn/SparsifyNodesIn skip
// the stage audits, apply each stage's winning seed through the row its
// search hashed last, hand E* over as its edge list and map degrees to
// classes through a table. Each is pinned here to what it replaces.

// edgeCase is one graph the SparsifyEdges pins run on.
type edgeCase struct {
	name string
	g    *graph.Graph
}

// edgeCases are the graphs of the SparsifyEdges tests and one more,
// covering each way the chain can end: after its stages (the dense graph,
// a 2048-node star), with no stage (a grid, whose classes are all below
// 5), and with E subsampled away, so that E* falls back to E0 (a 40-node
// star, the case the SparsifyEdges tests lack).
func edgeCases() []edgeCase {
	return []edgeCase{
		{"dense", denseGraph()},
		{"star2048", gen.Star(2048)},
		{"grid40x40", gen.Grid2D(40, 40)},
		{"star40", gen.Star(40)},
	}
}

// dirtyScratch returns a scratch context whose arenas and z rows hold the
// state of a sparsification of another graph, Reset as the round loops
// leave it.
func dirtyScratch(p core.Params) *scratch.Context {
	sc := scratch.New()
	g := gen.GNM(700, 700*20, 5)
	SparsifyEdgesIn(sc, g, p, costModel(g, p))
	SparsifyNodesIn(sc, g, p, costModel(g, p))
	sc.Reset()
	return sc
}

// withoutAudits returns stages with the audit fields zeroed, which is what
// the In entry points report.
func withoutAudits(stages []StageReport) []StageReport {
	out := slices.Clone(stages)
	for i := range out {
		out[i].InvariantI, out[i].InvariantII = InvariantCheck{}, InvariantCheck{}
	}
	return out
}

// requireWrapperAudited fails unless the wrapper audited every stage, so
// that zeroing its audit fields hides something.
func requireWrapperAudited(t *testing.T, stages []StageReport) {
	t.Helper()
	for _, st := range stages {
		if st.InvariantI.Name == "" || st.InvariantII.Name == "" {
			t.Fatalf("stage %d: the wrapper skipped an audit", st.Stage)
		}
	}
}

// TestSparsifyInMatchesWrapper pins SparsifyEdgesIn and SparsifyNodesIn on
// a dirty scratch context to the allocating wrappers at Parallelism 1/2/8:
// every result field and every model charge is the wrapper's, and the stage
// reports are the wrapper's with the audit fields zeroed.
func TestSparsifyInMatchesWrapper(t *testing.T) {
	for _, tc := range edgeCases() {
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, par), func(t *testing.T) {
				g := tc.g
				p := params()
				p.Parallelism = par

				wantModel, gotModel := simcost.New(g.N(), g.M(), p.Epsilon), simcost.New(g.N(), g.M(), p.Epsilon)
				we := SparsifyEdges(g, p, wantModel)
				ge := SparsifyEdgesIn(dirtyScratch(p), g, p, gotModel)
				requireWrapperAudited(t, we.Stages)
				if ge.ClassIndex != we.ClassIndex || ge.BWeight != we.BWeight || ge.UsedFallback != we.UsedFallback ||
					!slices.Equal(ge.B, we.B) || !slices.Equal(ge.Deg, we.Deg) || !slices.Equal(ge.E0, we.E0) ||
					!slices.Equal(ge.EStar.Edges(), we.EStar.Edges()) || !slices.Equal(ge.EStarEdges, we.EStarEdges) {
					t.Fatalf("edges: SparsifyEdgesIn differs from SparsifyEdges (class %d/%d, B weight %d/%d, |E*| %d/%d)",
						ge.ClassIndex, we.ClassIndex, ge.BWeight, we.BWeight, ge.EStar.M(), we.EStar.M())
				}
				if !reflect.DeepEqual(ge.Stages, withoutAudits(we.Stages)) {
					t.Fatalf("edges: stages %+v, wrapper without audits %+v", ge.Stages, withoutAudits(we.Stages))
				}
				if !reflect.DeepEqual(gotModel.Stats(), wantModel.Stats()) {
					t.Fatalf("edges: charges %+v, wrapper %+v", gotModel.Stats(), wantModel.Stats())
				}

				wantModel, gotModel = simcost.New(g.N(), g.M(), p.Epsilon), simcost.New(g.N(), g.M(), p.Epsilon)
				wn := SparsifyNodes(g, p, wantModel)
				gn := SparsifyNodesIn(dirtyScratch(p), g, p, gotModel)
				requireWrapperAudited(t, wn.Stages)
				if gn.ClassIndex != wn.ClassIndex || gn.BWeight != wn.BWeight || gn.UsedFallback != wn.UsedFallback ||
					!slices.Equal(gn.B, wn.B) || !slices.Equal(gn.Deg, wn.Deg) || !slices.Equal(gn.Q0, wn.Q0) ||
					!slices.Equal(gn.Q, wn.Q) || !slices.Equal(gn.QList, wn.QList) ||
					!slices.Equal(gn.QGraph.Edges(), wn.QGraph.Edges()) {
					t.Fatalf("nodes: SparsifyNodesIn differs from SparsifyNodes (class %d/%d, |Q'| %d/%d)",
						gn.ClassIndex, wn.ClassIndex, len(gn.QList), len(wn.QList))
				}
				if !reflect.DeepEqual(gn.Stages, withoutAudits(wn.Stages)) {
					t.Fatalf("nodes: stages %+v, wrapper without audits %+v", gn.Stages, withoutAudits(wn.Stages))
				}
				if !reflect.DeepEqual(gotModel.Stats(), wantModel.Stats()) {
					t.Fatalf("nodes: charges %+v, wrapper %+v", gotModel.Stats(), wantModel.Stats())
				}
			})
		}
	}
}

// TestEStarEdgesMatchEdges pins the handed-over E* list to EStar.Edges() on
// every graph of the SparsifyEdges tests, through the wrapper and through
// SparsifyEdgesIn on a dirty scratch context at Parallelism 1/2/8. The
// cases must include a chain with no stage and one that falls back to E0.
func TestEStarEdgesMatchEdges(t *testing.T) {
	var zeroStages, fallback bool
	for _, tc := range edgeCases() {
		for _, par := range []int{1, 2, 8} {
			p := params()
			p.Parallelism = par
			for _, res := range []*EdgeResult{SparsifyEdges(tc.g, p, costModel(tc.g, p)), SparsifyEdgesIn(dirtyScratch(p), tc.g, p, costModel(tc.g, p))} {
				if want := res.EStar.Edges(); !slices.Equal(res.EStarEdges, want) {
					t.Fatalf("%s p%d: handed-over E* list has %d edges, EStar.Edges() %d, or they differ",
						tc.name, par, len(res.EStarEdges), len(want))
				}
				if res.UsedFallback && !slices.Equal(res.EStarEdges, res.E0) {
					t.Fatalf("%s p%d: fallback E* list is not E0", tc.name, par)
				}
				zeroStages = zeroStages || len(res.Stages) == 0
				fallback = fallback || res.UsedFallback
			}
		}
	}
	if !zeroStages || !fallback {
		t.Fatalf("cases too weak: a zero-stage chain %v, a fallback %v", zeroStages, fallback)
	}
}

// applyTally counts the stage searches whose first candidate won, those
// won by a later candidate after the first missed, and those that found no
// all-good seed.
type applyTally struct{ firstWins, lateWins, misses int }

// filterEdges is E_j built from the winner's EvalKeysW row.
func filterEdges(items *stageItems, seed []uint64, cur []graph.Edge, workers int) []graph.Edge {
	z := items.ev.EvalKeysW(seed, items.keys, make([]uint64, len(items.keys)), workers)
	var next []graph.Edge
	for t, e := range cur {
		if z[t] < items.th {
			next = append(next, e)
		}
	}
	return next
}

// filterNodes is Q_j built from the winner's EvalKeysW row.
func filterNodes(items *stageItems, seed []uint64, cur []graph.NodeID, workers int) []graph.NodeID {
	z := items.ev.EvalKeysW(seed, items.keys, make([]uint64, len(items.keys)), workers)
	var next []graph.NodeID
	for t, v := range cur {
		if z[t] < items.th {
			next = append(next, v)
		}
	}
	return next
}

// checkApply runs the search of items under p, charged to model, and
// applies its result, and fails unless the applied set equals ref's, the
// set built from EvalKeysW(res.Seed). It records in tl how the search
// ended.
func checkApply[T comparable](t *testing.T, tl *applyTally, what string, items *stageItems, p core.Params, model *simcost.Model,
	apply func(res condexp.Result) []T, ref func(seed []uint64) []T) []T {

	t.Helper()
	enum := items.ev.Family().Enumerate()
	enum.Next()
	firstMissed := items.good(items.ev.EvalKeys(enum.Seed(), items.keys, make([]uint64, len(items.keys)))) < int64(items.groups)
	res := items.search(p, model)
	got := apply(res)
	if want := ref(res.Seed); !slices.Equal(got, want) {
		t.Fatalf("%s (found %v): the applied set differs from the EvalKeysW filter", what, res.Found)
	}
	switch {
	case !res.Found:
		tl.misses++
	case firstMissed:
		tl.lateWins++
	default:
		tl.firstWins++
	}
	return got
}

// TestStageApplyMatchesEvalKeysW pins the stage apply step, which reads the
// winner's values off the row its search hashed last, to the E_j and Q_j
// built from EvalKeysW(res.Seed), on the real edge and node stage chains
// of three generator families at Parallelism 1/2/8. Every stage is applied
// at the default slack, where the first candidate wins. The first stage is
// applied twice more: under the windows compareMissSearch tightens until
// no seed is all-good, where the apply hashes the best seed's items again,
// and at slack 1.2, where on some families the first candidate misses and
// a later one wins. Each of the three endings must occur on edge and node
// stages alike, and the applied chain must reproduce the stage reports.
func TestStageApplyMatchesEvalKeysW(t *testing.T) {
	var edges, nodes applyTally
	for _, family := range []string{"gnm", "powerlaw", "regular"} {
		g, err := gen.ByName(family, 512, 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/p%d", family, par), func(t *testing.T) {
				p := params()
				p.Parallelism = par
				miss, late := p, p
				miss.Slack, miss.MaxSeedsPerSearch = 0.05, 64
				late.Slack, late.MaxSeedsPerSearch = 1.2, 256
				dc := core.NewDegreeClasses(n, p.InvDelta)
				sc := dirtyScratch(p)

				er := SparsifyEdges(g, p, costModel(g, p))
				cur := er.E0
				for j, st := range er.Stages {
					j++
					run := func(what string, q core.Params) []graph.Edge {
						items := edgeStageItems(sc, n, cur, er.B, er.Deg, dc, q, j)
						return checkApply(t, &edges, what, items, q, costModel(g, q),
							func(res condexp.Result) []graph.Edge {
								return keep(sc.EdgesCap(len(cur)+1), cur, items.row(res, par), items.th)
							},
							func(seed []uint64) []graph.Edge { return filterEdges(items, seed, cur, par) })
					}
					if j == 1 {
						run("edge stage 1 (tightened)", miss)
						run("edge stage 1 (slack 1.2)", late)
					}
					next := run(fmt.Sprintf("edge stage %d", j), p)
					if len(next) != st.ItemsAfter {
						t.Fatalf("edge stage %d: applied %d edges, the report says %d", j, len(next), st.ItemsAfter)
					}
					cur = slices.Clone(next) // next lives in sc, which the next stage Resets
					sc.Reset()
				}

				nr := SparsifyNodes(g, p, costModel(g, p))
				invDeg := make([]float64, n)
				for v := range invDeg {
					invDeg[v] = 1 / float64(nr.Deg[v])
				}
				q := maskList(nr.Q0)
				for j, st := range nr.Stages {
					j++
					run := func(what string, pp core.Params) []graph.NodeID {
						items := nodeStageItems(sc, g, q, nr.B, invDeg, dc, pp, nr.ClassIndex, j)
						return checkApply(t, &nodes, what, items, pp, costModel(g, pp),
							func(res condexp.Result) []graph.NodeID {
								return keep(sc.NodeIDsCap(len(q)+1), q, items.row(res, par), items.th)
							},
							func(seed []uint64) []graph.NodeID { return filterNodes(items, seed, q, par) })
					}
					if j == 1 {
						run("node stage 1 (tightened)", miss)
						run("node stage 1 (slack 1.2)", late)
					}
					next := run(fmt.Sprintf("node stage %d", j), p)
					if len(next) != st.ItemsAfter {
						t.Fatalf("node stage %d: applied |Q_j| = %d, the report says %d", j, len(next), st.ItemsAfter)
					}
					q = slices.Clone(next)
					sc.Reset()
				}
			})
		}
	}
	t.Logf("edge stages: %d won by the first candidate, %d by a later one, %d with no all-good seed; node stages: %d, %d and %d",
		edges.firstWins, edges.lateWins, edges.misses, nodes.firstWins, nodes.lateWins, nodes.misses)
	for _, tl := range []applyTally{edges, nodes} {
		if tl.firstWins == 0 || tl.lateWins == 0 || tl.misses == 0 {
			t.Fatal("an apply branch went unexercised")
		}
	}
}

// TestClassTableMatchesClass pins the degree classes read off the table
// to DegreeClasses.Class: for every degree 0..n at the sizes of core's
// DegreeClasses tests, and per node on the SparsifyEdges test graphs, each
// on a dirty scratch context.
func TestClassTableMatchesClass(t *testing.T) {
	p := params()
	for _, c := range []struct{ n, k int }{{1 << 14, 16}, {1000, 8}, {4, 16}, {1 << 16, 16}} {
		dc := core.NewDegreeClasses(c.n, c.k)
		deg := make([]int, c.n+1)
		for d := range deg {
			deg[d] = d
		}
		for d, got := range classesInto(dirtyScratch(p), dc, deg) {
			if want := dc.Class(d); got != want {
				t.Fatalf("n=%d k=%d: degree %d in class %d, Class says %d", c.n, c.k, d, got, want)
			}
		}
	}
	for _, tc := range edgeCases() {
		dc := core.NewDegreeClasses(tc.g.N(), p.InvDelta)
		deg := tc.g.DegreesInto(make([]int, tc.g.N()))
		classOf := classesInto(dirtyScratch(p), dc, deg)
		for v, d := range deg {
			if want := dc.Class(d); classOf[v] != want {
				t.Fatalf("%s: node %d of degree %d in class %d, Class says %d", tc.name, v, d, classOf[v], want)
			}
		}
	}
}
