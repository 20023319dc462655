// Package integration_test cross-checks the algorithm implementations
// against each other through graph-theoretic identities: any two maximal
// matchings are within a factor two in size, an independent set never
// exceeds n minus any matching size, the complement of an MIS is a vertex
// cover, and all strategies agree on maximality. Workloads are sampled with
// testing/quick so the identities are exercised on arbitrary random graphs,
// not only the curated fixtures.
package integration_test

import (
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/lowdeg"
	"repro/internal/luby"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

func params() core.Params { return core.DefaultParams() }

// costModel returns the cost model of a solve of g under p, the one every
// solve charges.
func costModel(g *graph.Graph, p core.Params) *simcost.Model {
	return simcost.New(g.N(), g.M(), p.Epsilon)
}

// randomGraph builds a graph from raw fuzz bytes: n in [2, 120], edges from
// byte pairs.
func randomGraph(raw []byte) *graph.Graph {
	n := 2 + int(uint(len(raw))%119)
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(raw); i += 2 {
		b.AddEdge(graph.NodeID(int(raw[i])%n), graph.NodeID(int(raw[i+1])%n))
	}
	return b.Build()
}

func TestMaximalMatchingsWithinFactorTwo(t *testing.T) {
	// For any graph, |M1| <= 2|M2| for maximal matchings M1, M2.
	f := func(raw []byte) bool {
		g := randomGraph(raw)
		det := matching.Deterministic(g, params(), costModel(g, params())).Matching
		ld := lowdeg.MaximalMatchingIn(scratch.New(), g, params(), costModel(g, params())).Matching
		rand := luby.MaximalMatching(g, detrand.New(7)).Matching
		sizes := []int{len(det), len(ld), len(rand)}
		for _, a := range sizes {
			for _, b := range sizes {
				if a > 2*b {
					t.Logf("sizes %v on n=%d m=%d", sizes, g.N(), g.M())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestISNeverExceedsNMinusMatching(t *testing.T) {
	// Any independent set contains at most one endpoint per matching edge:
	// |I| <= n - |M|.
	f := func(raw []byte) bool {
		g := randomGraph(raw)
		is := mis.Deterministic(g, params(), costModel(g, params())).IndependentSet
		mm := matching.Deterministic(g, params(), costModel(g, params())).Matching
		return len(is) <= g.N()-len(mm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMISComplementIsVertexCover(t *testing.T) {
	f := func(raw []byte) bool {
		g := randomGraph(raw)
		is := mis.Deterministic(g, params(), costModel(g, params())).IndependentSet
		inIS := make([]bool, g.N())
		for _, v := range is {
			inIS[v] = true
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				if graph.NodeID(u) < v && inIS[u] && inIS[v] {
					return false // both endpoints inside: not independent
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMISSizeLowerBound(t *testing.T) {
	// |MIS| >= n / (Δ+1) for every maximal independent set.
	f := func(raw []byte) bool {
		g := randomGraph(raw)
		is := mis.Deterministic(g, params(), costModel(g, params())).IndependentSet
		return len(is)*(g.MaxDegree()+1) >= g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBothStrategiesMaximalOnFuzzedGraphs(t *testing.T) {
	f := func(raw []byte) bool {
		g := randomGraph(raw)
		a := matching.Deterministic(g, params(), costModel(g, params())).Matching
		bRes := lowdeg.MaximalMatchingIn(scratch.New(), g, params(), costModel(g, params())).Matching
		if ok, _ := check.IsMaximalMatching(g, a); !ok {
			return false
		}
		if ok, _ := check.IsMaximalMatching(g, bRes); !ok {
			return false
		}
		// Cross-strategy 2-approximation identity.
		return len(a) <= 2*len(bRes) && len(bRes) <= 2*len(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBothMISStrategiesMaximalOnFuzzedGraphs(t *testing.T) {
	f := func(raw []byte) bool {
		g := randomGraph(raw)
		a := mis.Deterministic(g, params(), costModel(g, params())).IndependentSet
		b := lowdeg.MIS(g, params(), costModel(g, params())).IndependentSet
		okA, _ := check.IsMaximalIS(g, a)
		okB, _ := check.IsMaximalIS(g, b)
		return okA && okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRegimeBoundaryGraphs(t *testing.T) {
	// Graphs engineered to sit at the dispatch boundaries: degrees
	// straddling the class-5 threshold n^{4δ}, stars inside sparse shells,
	// and disjoint unions of dense and sparse parts.
	p := params()
	n := 1024
	dc := core.NewDegreeClasses(n, p.InvDelta)
	gamma := dc.GroupSize()

	// Union: a clique on gamma*4 nodes plus a path on the rest.
	b := graph.NewBuilder(n)
	cliqueSize := 4 * gamma
	for u := 0; u < cliqueSize; u++ {
		for v := u + 1; v < cliqueSize; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	for v := cliqueSize; v+1 < n; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	g := b.Build()

	mm := matching.Deterministic(g, p, costModel(g, p))
	if ok, reason := check.IsMaximalMatching(g, mm.Matching); !ok {
		t.Errorf("boundary union matching: %s", reason)
	}
	is := mis.Deterministic(g, p, costModel(g, p))
	if ok, reason := check.IsMaximalIS(g, is.IndependentSet); !ok {
		t.Errorf("boundary union MIS: %s", reason)
	}
}

func TestTinyGraphsAllAlgorithms(t *testing.T) {
	for n := 0; n <= 4; n++ {
		for _, density := range []int{0, 1, 2} {
			var g *graph.Graph
			switch density {
			case 0:
				g = graph.Empty(n)
			case 1:
				g = gen.Path(n)
			default:
				g = gen.Complete(n)
			}
			mm := matching.Deterministic(g, params(), costModel(g, params())).Matching
			if ok, reason := check.IsMaximalMatching(g, mm); !ok {
				t.Errorf("n=%d density=%d matching: %s", n, density, reason)
			}
			is := mis.Deterministic(g, params(), costModel(g, params())).IndependentSet
			if ok, reason := check.IsMaximalIS(g, is); !ok {
				t.Errorf("n=%d density=%d MIS: %s", n, density, reason)
			}
			ld := lowdeg.MIS(g, params(), costModel(g, params())).IndependentSet
			if ok, reason := check.IsMaximalIS(g, ld); !ok {
				t.Errorf("n=%d density=%d lowdeg: %s", n, density, reason)
			}
		}
	}
}

func TestDisconnectedComponentsIndependence(t *testing.T) {
	// Output on a disjoint union restricted to one component equals a valid
	// maximal solution of that component (no cross-component interference
	// beyond tie-break ids).
	a := gen.GNM(200, 800, 1)
	b := graph.NewBuilder(400)
	for _, e := range a.Edges() {
		b.AddEdge(e.U, e.V)         // component 1 on [0,200)
		b.AddEdge(e.U+200, e.V+200) // component 2 on [200,400)
	}
	g := b.Build()
	is := mis.Deterministic(g, params(), costModel(g, params())).IndependentSet
	if ok, reason := check.IsMaximalIS(g, is); !ok {
		t.Fatal(reason)
	}
	// Each component's restriction must be maximal within it.
	var left []graph.NodeID
	for _, v := range is {
		if v < 200 {
			left = append(left, v)
		}
	}
	if ok, reason := check.IsMaximalIS(a, left); !ok {
		t.Errorf("restriction to component 1 not maximal: %s", reason)
	}
}
