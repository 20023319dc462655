package repro

import (
	"testing"

	"repro/internal/check"
)

func TestMaximalMatchingDefaults(t *testing.T) {
	g, err := Generate("gnm", 1024, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaximalMatching(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := check.IsMaximalMatching(g, res.Edges); !ok {
		t.Fatal(reason)
	}
	if res.Costs == nil || res.Costs.Rounds == 0 {
		t.Error("no cost report")
	}
	if res.Strategy != StrategySparsify && res.Strategy != StrategyLowDegree {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

func TestMaximalIndependentSetDefaults(t *testing.T) {
	g, err := Generate("powerlaw", 1024, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaximalIndependentSet(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := check.IsMaximalIS(g, res.Nodes); !ok {
		t.Fatal(reason)
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
	}
}

func TestAutoDispatch(t *testing.T) {
	// Grid (Δ=4) must take the low-degree path; a dense G(n,m) must take
	// the sparsification path.
	grid, _ := Generate("grid", 1024, 4, 1)
	res, err := MaximalIndependentSet(grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyLowDegree {
		t.Errorf("grid dispatched to %q, want lowdeg", res.Strategy)
	}
	dense, _ := Generate("gnm", 1024, 64, 1)
	res, err = MaximalIndependentSet(dense, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategySparsify {
		t.Errorf("dense graph dispatched to %q, want sparsify", res.Strategy)
	}
}

func TestForcedStrategies(t *testing.T) {
	g, _ := Generate("gnm", 512, 8, 3)
	for _, s := range []Strategy{StrategySparsify, StrategyLowDegree} {
		mm, err := MaximalMatching(g, &Options{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ok, reason := check.IsMaximalMatching(g, mm.Edges); !ok {
			t.Errorf("%s: %s", s, reason)
		}
		is, err := MaximalIndependentSet(g, &Options{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ok, reason := check.IsMaximalIS(g, is.Nodes); !ok {
			t.Errorf("%s: %s", s, reason)
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	g, _ := Generate("path", 10, 2, 1)
	if _, err := MaximalMatching(g, &Options{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := MaximalIndependentSet(g, &Options{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestNilGraph(t *testing.T) {
	if _, err := MaximalMatching(nil, nil); err != ErrNilGraph {
		t.Errorf("err = %v", err)
	}
	if _, err := MaximalIndependentSet(nil, nil); err != ErrNilGraph {
		t.Errorf("err = %v", err)
	}
}

func TestOptionsPropagate(t *testing.T) {
	g, _ := Generate("gnm", 512, 16, 7)
	res, err := MaximalIndependentSet(g, &Options{Epsilon: 0.75, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs == nil {
		t.Fatal("costs missing")
	}
	// ε = 0.75 gives S = ceil(512^0.75) = 108.
	if res.Costs.SpacePerMachine < 100 || res.Costs.SpacePerMachine > 120 {
		t.Errorf("S = %d, want ~108 for eps=0.75", res.Costs.SpacePerMachine)
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	res, err := MaximalMatching(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 2 && len(res.Edges) != 1 {
		t.Errorf("P4 matching size %d", len(res.Edges))
	}
	h := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if h.M() != 2 {
		t.Errorf("FromEdges m = %d", h.M())
	}
}

func TestGenerateUnknownFamily(t *testing.T) {
	if _, err := Generate("bogus", 10, 2, 1); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	g, _ := Generate("gnm", 512, 10, 11)
	a, err := MaximalIndependentSet(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaximalIndependentSet(g, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("parallel vs serial differ")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("results differ across calls")
		}
	}
}
