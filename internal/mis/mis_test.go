package mis

import (
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/simcost"
)

func params() core.Params { return core.DefaultParams() }

// costModel returns the cost model of a solve of g under p, the one every
// solve charges.
func costModel(g *graph.Graph, p core.Params) *simcost.Model {
	return simcost.New(g.N(), g.M(), p.Epsilon)
}

func requireMaximal(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
		t.Fatalf("not a maximal IS: %s", reason)
	}
}

func TestDeterministicOnFixtures(t *testing.T) {
	fixtures := map[string]*graph.Graph{
		"empty":     graph.Empty(10),
		"single":    gen.Path(2),
		"path":      gen.Path(50),
		"cycle":     gen.Cycle(51),
		"star":      gen.Star(100),
		"complete":  gen.Complete(60),
		"bipartite": gen.CompleteBipartite(30, 45),
		"grid":      gen.Grid2D(12, 17),
		"tree":      gen.RandomTree(300, 4),
	}
	for name, g := range fixtures {
		res := Deterministic(g, params(), costModel(g, params()))
		requireMaximal(t, g, res)
		switch name {
		case "empty":
			if len(res.IndependentSet) != 10 {
				t.Errorf("empty graph MIS size %d, want 10", len(res.IndependentSet))
			}
		case "complete":
			if len(res.IndependentSet) != 1 {
				t.Errorf("K60 MIS size %d, want 1", len(res.IndependentSet))
			}
		case "star":
			// Either the centre alone or all leaves.
			if s := len(res.IndependentSet); s != 1 && s != 99 {
				t.Errorf("star MIS size %d, want 1 or 99", s)
			}
		case "bipartite":
			if s := len(res.IndependentSet); s != 30 && s != 45 {
				t.Errorf("K(30,45) MIS size %d, want 30 or 45", s)
			}
		}
	}
}

func TestDeterministicRandomGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm-sparse", gen.GNM(1000, 3000, 1)},
		{"gnm-dense", gen.GNM(1024, 1024*24, 2)},
		{"powerlaw", gen.PowerLaw(1000, 5000, 2.5, 3)},
		{"regular", gen.RandomRegular(900, 12, 4)},
	} {
		res := Deterministic(tc.g, params(), costModel(tc.g, params()))
		requireMaximal(t, tc.g, res)
	}
}

func TestIterationCountLogarithmic(t *testing.T) {
	g := gen.GNM(4096, 4096*8, 5)
	res := Deterministic(g, params(), costModel(g, params()))
	iters := len(res.Rounds)
	bound := int(8 * math.Log2(float64(g.M())))
	if iters > bound {
		t.Errorf("iterations %d exceed 8·log2(m) = %d", iters, bound)
	}
	t.Logf("n=%d m=%d iterations=%d", g.N(), g.M(), iters)
}

func TestPerIterationProgress(t *testing.T) {
	g := gen.GNM(2048, 2048*16, 6)
	res := Deterministic(g, params(), costModel(g, params()))
	for i, st := range res.Rounds {
		if st.EdgesBefore > 0 && st.EdgesAfter >= st.EdgesBefore {
			t.Fatalf("iteration %d made no progress: %d -> %d",
				i+1, st.EdgesBefore, st.EdgesAfter)
		}
	}
}

func TestDeterministicIsDeterministic(t *testing.T) {
	g := gen.GNM(512, 4096, 9)
	a := Deterministic(g, params(), costModel(g, params()))
	b := Deterministic(g, params(), costModel(g, params()))
	if len(a.IndependentSet) != len(b.IndependentSet) {
		t.Fatalf("sizes differ: %d vs %d", len(a.IndependentSet), len(b.IndependentSet))
	}
	for i := range a.IndependentSet {
		if a.IndependentSet[i] != b.IndependentSet[i] {
			t.Fatalf("node %d differs", i)
		}
	}
	pp := params()
	pp.Parallelism = 1
	c := Deterministic(g, pp, costModel(g, pp))
	if len(a.IndependentSet) != len(c.IndependentSet) {
		t.Fatal("parallel vs serial results differ")
	}
}

func TestModelAccounting(t *testing.T) {
	g := gen.GNM(1024, 8192, 11)
	model := simcost.New(g.N(), g.M(), 0.5)
	res := Deterministic(g, params(), model)
	requireMaximal(t, g, res)
	st := model.Stats()
	if st.Rounds == 0 || st.SeedBatches == 0 {
		t.Errorf("rounds/batches not charged: %+v", st)
	}
	maxPerIter := 40 * (1 + core.StageCount(16))
	if st.Rounds > (len(res.Rounds)+1)*maxPerIter {
		t.Errorf("rounds %d too high for %d iterations", st.Rounds, len(res.Rounds))
	}
	for _, v := range model.Violations() {
		t.Errorf("space violation: %s", v)
	}
}

func TestIndependentSetIsSortedAndUnique(t *testing.T) {
	g := gen.GNM(700, 3000, 13)
	res := Deterministic(g, params(), costModel(g, params()))
	for i := 1; i < len(res.IndependentSet); i++ {
		if res.IndependentSet[i-1] >= res.IndependentSet[i] {
			t.Fatal("IndependentSet not sorted/unique")
		}
	}
}

func TestIsolatedNodesAlwaysJoin(t *testing.T) {
	// Graph with isolated nodes sprinkled in: they all must be in the MIS.
	b := graph.NewBuilder(20)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	res := Deterministic(g, params(), costModel(g, params()))
	requireMaximal(t, g, res)
	in := map[graph.NodeID]bool{}
	for _, v := range res.IndependentSet {
		in[v] = true
	}
	for v := graph.NodeID(4); v < 20; v++ {
		if !in[v] {
			t.Errorf("isolated node %d missing from MIS", v)
		}
	}
}

func TestSeedSearchUsuallyFast(t *testing.T) {
	g := gen.GNM(2048, 2048*8, 13)
	res := Deterministic(g, params(), costModel(g, params()))
	totalSeeds, considered := 0, 0
	for _, st := range res.Rounds {
		if st.SeedsTried > 0 {
			totalSeeds += st.SeedsTried
			considered++
		}
	}
	if considered == 0 {
		t.Skip("no seed searches ran")
	}
	if avg := float64(totalSeeds) / float64(considered); avg > 1024 {
		t.Errorf("average seeds/iteration %.1f too high", avg)
	}
}

func TestSmallEpsilon(t *testing.T) {
	g := gen.GNM(700, 4200, 23)
	p := params().WithEpsilon(0.25)
	res := Deterministic(g, p, costModel(g, p))
	requireMaximal(t, g, res)
}

func BenchmarkDeterministicGNM(b *testing.B) {
	g := gen.GNM(2048, 2048*8, 1)
	p := params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Deterministic(g, p, costModel(g, p))
	}
}
