package repro

import (
	"reflect"
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
		t.Error("cost tracking missing by default")
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

func TestSkipCostTracking(t *testing.T) {
	g, _ := Generate("gnm", 256, 6, 5)
	res, err := MaximalMatching(g, &Options{SkipCostTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs != nil {
		t.Error("costs reported despite SkipCostTracking")
	}
}

// mobiusLadder returns the 3-regular Möbius ladder on n nodes (n even):
// edges {i, i+1 mod n} and {i, i+n/2}.
func mobiusLadder(n int) *Graph {
	var edges []Edge
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{U: NodeID(i), V: NodeID((i + 1) % n)})
		if i < n/2 {
			edges = append(edges, Edge{U: NodeID(i), V: NodeID(i + n/2)})
		}
	}
	return FromEdges(n, edges)
}

// TestCostTrackingDoesNotChangeSolve requires a solve with cost tracking
// off to pick the same strategy and return the same output and iteration
// count as the tracked solve. On these ladders ⌈n^ε⌉ = 8 or 10 lies below
// the model's floor S = 16, so a machine budget taken without that floor
// (8·⌈n^ε⌉, under Δ⁴ = 81) sends auto to the sparsify path and sizes the
// lowdeg stages differently.
func TestCostTrackingDoesNotChangeSolve(t *testing.T) {
	for _, tc := range []struct {
		n   int
		eps float64
	}{{64, 0.5}, {100, 0.5}, {4096, 0.25}} {
		g := mobiusLadder(tc.n)
		for _, strat := range []Strategy{StrategyAuto, StrategyLowDegree} {
			on := &Options{Epsilon: tc.eps, Strategy: strat}
			off := &Options{Epsilon: tc.eps, Strategy: strat, SkipCostTracking: true}
			mmOn, err := MaximalMatching(g, on)
			if err != nil {
				t.Fatal(err)
			}
			mmOff, err := MaximalMatching(g, off)
			if err != nil {
				t.Fatal(err)
			}
			if mmOn.Strategy != mmOff.Strategy || mmOn.Iterations != mmOff.Iterations || !reflect.DeepEqual(mmOn.Edges, mmOff.Edges) {
				t.Errorf("n=%d ε=%v %s matching: tracked %s, %d edges in %d iterations; untracked %s, %d edges in %d iterations",
					tc.n, tc.eps, strat, mmOn.Strategy, len(mmOn.Edges), mmOn.Iterations, mmOff.Strategy, len(mmOff.Edges), mmOff.Iterations)
			}
			isOn, err := MaximalIndependentSet(g, on)
			if err != nil {
				t.Fatal(err)
			}
			isOff, err := MaximalIndependentSet(g, off)
			if err != nil {
				t.Fatal(err)
			}
			if isOn.Strategy != isOff.Strategy || isOn.Iterations != isOff.Iterations || !reflect.DeepEqual(isOn.Nodes, isOff.Nodes) {
				t.Errorf("n=%d ε=%v %s MIS: tracked %s, %d nodes in %d iterations; untracked %s, %d nodes in %d iterations",
					tc.n, tc.eps, strat, isOn.Strategy, len(isOn.Nodes), isOn.Iterations, isOff.Strategy, len(isOff.Nodes), isOff.Iterations)
			}
		}
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
