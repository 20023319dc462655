package check

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func path4() *graph.Graph { return gen.Path(4) } // 0-1-2-3

func TestIsMatching(t *testing.T) {
	g := path4()
	if ok, _ := IsMatching(g, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}); !ok {
		t.Error("valid matching rejected")
	}
	if ok, reason := IsMatching(g, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}); ok {
		t.Error("overlapping edges accepted")
	} else if reason == "" {
		t.Error("missing reason")
	}
	if ok, _ := IsMatching(g, []graph.Edge{{U: 0, V: 3}}); ok {
		t.Error("non-edge accepted")
	}
	if ok, _ := IsMatching(g, nil); !ok {
		t.Error("empty matching rejected")
	}
	// Out-of-range endpoints are reported, not indexed.
	for _, e := range []graph.Edge{{U: 5, V: 1}, {U: -1, V: 0}} {
		if ok, reason := IsMatching(g, []graph.Edge{e}); ok {
			t.Errorf("edge %v with an out-of-range endpoint accepted", e)
		} else if !strings.Contains(reason, "out of range") {
			t.Errorf("edge %v: reason %q does not say out of range", e, reason)
		}
	}
}

func TestIsMaximalMatching(t *testing.T) {
	g := path4()
	if ok, _ := IsMaximalMatching(g, []graph.Edge{{U: 1, V: 2}}); !ok {
		t.Error("maximal matching {1-2} rejected")
	}
	if ok, _ := IsMaximalMatching(g, []graph.Edge{{U: 0, V: 1}}); ok {
		t.Error("non-maximal matching accepted (2-3 addable)")
	}
	if ok, _ := IsMaximalMatching(gen.Complete(4), []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}); !ok {
		t.Error("perfect matching of K4 rejected")
	}
	// Empty graph: the empty matching is maximal.
	if ok, _ := IsMaximalMatching(graph.Empty(5), nil); !ok {
		t.Error("empty matching on empty graph rejected")
	}
	if ok, reason := IsMaximalMatching(g, []graph.Edge{{U: 1, V: 2}, {U: 9, V: 0}}); ok {
		t.Error("matching with an out-of-range endpoint accepted")
	} else if !strings.Contains(reason, "out of range") {
		t.Errorf("reason %q does not say out of range", reason)
	}
}

func TestIsIndependentSet(t *testing.T) {
	g := path4()
	if ok, _ := IsIndependentSet(g, []graph.NodeID{0, 2}); !ok {
		t.Error("valid IS rejected")
	}
	if ok, _ := IsIndependentSet(g, []graph.NodeID{0, 1}); ok {
		t.Error("adjacent pair accepted")
	}
	if ok, _ := IsIndependentSet(g, []graph.NodeID{0, 0}); ok {
		t.Error("duplicate accepted")
	}
	if ok, _ := IsIndependentSet(g, []graph.NodeID{9}); ok {
		t.Error("out-of-range accepted")
	}
}

func TestIsMaximalIS(t *testing.T) {
	g := path4()
	if ok, _ := IsMaximalIS(g, []graph.NodeID{0, 2}); !ok {
		t.Error("maximal IS {0,2} rejected")
	}
	if ok, _ := IsMaximalIS(g, []graph.NodeID{1}); ok {
		t.Error("non-maximal IS accepted (3 addable)")
	}
	if ok, _ := IsMaximalIS(gen.Star(6), []graph.NodeID{0}); !ok {
		t.Error("star centre alone is maximal, rejected")
	}
	// All nodes of an empty graph must be present for maximality.
	if ok, _ := IsMaximalIS(graph.Empty(3), []graph.NodeID{0, 1}); ok {
		t.Error("missing isolated node accepted as maximal")
	}
	if ok, _ := IsMaximalIS(graph.Empty(3), []graph.NodeID{0, 1, 2}); !ok {
		t.Error("full vertex set of empty graph rejected")
	}
}
