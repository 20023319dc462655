package luby

import (
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func TestMISMaximalOnFixtures(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"empty":    graph.Empty(8),
		"path":     gen.Path(40),
		"complete": gen.Complete(30),
		"star":     gen.Star(64),
		"gnm":      gen.GNM(500, 2500, 1),
		"powerlaw": gen.PowerLaw(400, 1600, 2.5, 2),
	} {
		res := MIS(g, detrand.New(7))
		if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
			t.Errorf("%s: %s", name, reason)
		}
	}
}

func TestMISRoundsLogarithmic(t *testing.T) {
	g := gen.GNM(2048, 2048*8, 3)
	res := MIS(g, detrand.New(1))
	if r := len(res.Rounds); r > int(4*math.Log2(float64(g.M()))) {
		t.Errorf("Luby MIS took %d rounds on m=%d", r, g.M())
	}
}

func TestMISEdgeDecay(t *testing.T) {
	g := gen.GNM(1024, 8192, 5)
	res := MIS(g, detrand.New(2))
	for i, st := range res.Rounds {
		if st.EdgesAfter >= st.EdgesBefore {
			t.Fatalf("round %d made no progress", i+1)
		}
	}
}

func TestMISDeterministicGivenSeed(t *testing.T) {
	g := gen.GNM(300, 1200, 4)
	a := MIS(g, detrand.New(42))
	b := MIS(g, detrand.New(42))
	if len(a.IndependentSet) != len(b.IndependentSet) {
		t.Fatal("same seed, different MIS size")
	}
	for i := range a.IndependentSet {
		if a.IndependentSet[i] != b.IndependentSet[i] {
			t.Fatal("same seed, different MIS")
		}
	}
}

func TestMaximalMatchingOnFixtures(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"empty":    graph.Empty(8),
		"path":     gen.Path(40),
		"complete": gen.Complete(30),
		"gnm":      gen.GNM(400, 2000, 6),
	} {
		res := MaximalMatching(g, detrand.New(3))
		if ok, reason := check.IsMaximalMatching(g, res.Matching); !ok {
			t.Errorf("%s: %s", name, reason)
		}
	}
}

func TestMatchingRoundsLogarithmic(t *testing.T) {
	g := gen.GNM(1024, 1024*8, 8)
	res := MaximalMatching(g, detrand.New(1))
	if r := len(res.Rounds); r > int(4*math.Log2(float64(g.M()))) {
		t.Errorf("matching took %d rounds", r)
	}
}

func TestGreedyMIS(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Path(9), gen.Complete(12), gen.GNM(200, 700, 2)} {
		is := GreedyMIS(g)
		if ok, reason := check.IsMaximalIS(g, is); !ok {
			t.Error(reason)
		}
	}
	if got := len(GreedyMIS(gen.Star(10))); got != 1 {
		t.Errorf("greedy MIS of star picked %d nodes (id order starts at centre)", got)
	}
}

func TestGreedyMatching(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Path(9), gen.Complete(12), gen.GNM(200, 700, 3)} {
		mm := GreedyMatching(g)
		if ok, reason := check.IsMaximalMatching(g, mm); !ok {
			t.Error(reason)
		}
	}
}

func TestVerifyPanicsOnBadInput(t *testing.T) {
	g := gen.Path(4)
	defer func() {
		if recover() == nil {
			t.Error("Verify accepted a broken MIS")
		}
	}()
	Verify(g, []graph.NodeID{0, 1}, nil)
}

// GreedyMatching returns the sequential greedy maximal matching in canonical
// edge order.
func GreedyMatching(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	used := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		if used[u] {
			continue
		}
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v && !used[v] {
				out = append(out, graph.Edge{U: graph.NodeID(u), V: v})
				used[u] = true
				used[v] = true
				break
			}
		}
	}
	return out
}

// Verify panics if the given outputs are not maximal on g.
func Verify(g *graph.Graph, is []graph.NodeID, mm []graph.Edge) {
	if is != nil {
		if ok, reason := check.IsMaximalIS(g, is); !ok {
			panic("luby: baseline produced invalid MIS: " + reason)
		}
	}
	if mm != nil {
		if ok, reason := check.IsMaximalMatching(g, mm); !ok {
			panic("luby: baseline produced invalid matching: " + reason)
		}
	}
}
