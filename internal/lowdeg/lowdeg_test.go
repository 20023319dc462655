package lowdeg

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/simcost"
)

func params() core.Params { return core.DefaultParams() }

func TestMISMaximalOnLowDegreeFixtures(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":  gen.Path(200),
		"cycle": gen.Cycle(201),
		"grid":  gen.Grid2D(20, 25),
		"tree":  gen.RandomTree(500, 1),
		"reg4":  gen.RandomRegular(512, 4, 2),
		"reg8":  gen.RandomRegular(512, 8, 3),
	} {
		res := MIS(g, params(), nil)
		if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
			t.Errorf("%s: %s", name, reason)
		}
	}
}

func TestMISEmptyGraph(t *testing.T) {
	res := MIS(graph.Empty(7), params(), nil)
	if len(res.IndependentSet) != 7 {
		t.Errorf("MIS of empty graph = %d nodes, want 7", len(res.IndependentSet))
	}
	if res.Stages != 0 {
		t.Errorf("empty graph ran %d stages", res.Stages)
	}
}

func TestPhasesMakeProgress(t *testing.T) {
	g := gen.RandomRegular(1024, 6, 5)
	res := MIS(g, params(), nil)
	for _, ph := range res.Phases {
		if ph.EdgesAfter >= ph.EdgesBefore {
			t.Fatalf("stage %d phase %d: no progress", ph.Stage, ph.Phase)
		}
	}
}

func TestStageCompressionStructure(t *testing.T) {
	g := gen.Grid2D(64, 64) // Δ = 4 keeps ℓ >= 2 under the default budget
	res := MIS(g, params(), nil)
	if res.Ell < 2 {
		t.Skipf("ℓ = %d; budget too small for compression on this host", res.Ell)
	}
	if res.Radius != 2*res.Ell {
		t.Errorf("radius %d != 2ℓ = %d", res.Radius, 2*res.Ell)
	}
	// Stages must be fewer than phases when ℓ > 1 (that is the compression).
	if res.Stages >= len(res.Phases) && len(res.Phases) > res.Ell {
		t.Errorf("no compression: %d stages for %d phases", res.Stages, len(res.Phases))
	}
	if res.RoundsPaper <= 0 || res.RoundsExecuted < res.RoundsPaper {
		t.Errorf("round accounting odd: paper=%d executed=%d", res.RoundsPaper, res.RoundsExecuted)
	}
}

func TestPhaseCountLogarithmic(t *testing.T) {
	g := gen.RandomRegular(2048, 4, 7)
	res := MIS(g, params(), nil)
	bound := int(6 * math.Log2(float64(g.M())))
	if len(res.Phases) > bound {
		t.Errorf("phases %d exceed 6·log2(m) = %d", len(res.Phases), bound)
	}
	t.Logf("n=%d Δ=%d phases=%d stages=%d ℓ=%d colors=%d",
		g.N(), g.MaxDegree(), len(res.Phases), res.Stages, res.Ell, res.Colors)
}

func TestStagesGrowWithDelta(t *testing.T) {
	// The point of Theorem 1: stages ~ O(log Δ) at fixed n. We check the
	// weaker monotone-ish claim that stage counts stay within a small
	// multiple of log Δ across the sweep.
	n := 1024
	for _, d := range []int{4, 8, 16} {
		g := gen.RandomRegular(n, d, uint64(d))
		res := MIS(g, params(), nil)
		if res.Stages > 12*int(math.Log2(float64(d)))+12 {
			t.Errorf("Δ=%d: %d stages too many", d, res.Stages)
		}
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.RandomRegular(512, 6, 11)
	a := MIS(g, params(), nil)
	b := MIS(g, params(), nil)
	if len(a.IndependentSet) != len(b.IndependentSet) {
		t.Fatal("nondeterministic MIS size")
	}
	for i := range a.IndependentSet {
		if a.IndependentSet[i] != b.IndependentSet[i] {
			t.Fatal("nondeterministic MIS")
		}
	}
}

func TestModelAccountingAndSpace(t *testing.T) {
	g := gen.Grid2D(40, 40)
	model := simcost.New(g.N(), g.M(), 0.5)
	res := MIS(g, params(), model)
	if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
		t.Fatal(reason)
	}
	if model.Rounds() == 0 {
		t.Error("no rounds charged")
	}
	for _, v := range model.Violations() {
		t.Errorf("space violation: %s", v)
	}
	if res.MaxBallWords > model.MachineBudget() {
		t.Errorf("ball words %d exceed budget %d", res.MaxBallWords, model.MachineBudget())
	}
}

func TestSuitable(t *testing.T) {
	model := simcost.New(4096, 16384, 0.5) // S=64, budget=512
	if !Suitable(gen.Grid2D(64, 64), params(), model) {
		t.Error("grid (Δ=4, Δ⁴=256) should be suitable")
	}
	if Suitable(gen.Star(4096), params(), model) {
		t.Error("star (Δ=4095) should not be suitable")
	}
	if !Suitable(graph.Empty(10), params(), nil) {
		t.Error("empty graph should be suitable")
	}
}

func TestMaximalMatchingViaLineGraph(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path": gen.Path(150),
		"grid": gen.Grid2D(15, 15),
		"reg6": gen.RandomRegular(400, 6, 13),
	} {
		res := MaximalMatching(g, params(), nil)
		if ok, reason := check.IsMaximalMatching(g, res.Matching); !ok {
			t.Errorf("%s: %s", name, reason)
		}
		if res.MIS == nil || len(res.MIS.IndependentSet) != len(res.Matching) {
			t.Errorf("%s: line-graph MIS inconsistent", name)
		}
	}
}

func TestEll(t *testing.T) {
	if Ell(2, 1024) < Ell(16, 1024) {
		t.Error("ℓ should shrink as Δ grows")
	}
	if Ell(4, 1024) < 2 {
		t.Errorf("Ell(4, 1024) = %d, want >= 2", Ell(4, 1024))
	}
	if Ell(1000000, 16) != 1 {
		t.Error("huge Δ must clamp to 1")
	}
	if Ell(2, 1<<30) != 8 {
		t.Errorf("cap at 8 broken: %d", Ell(2, 1<<30))
	}
}

// removedEdgesMasked counts edges incident to ih ∪ N(ih) in cur by scanning
// all of cur, using the caller's mask (length >= cur.N(), all-false on
// entry) as working state and restoring it to all-false before returning.
// It is the full-scan reference incidentEdges is pinned to.
func removedEdgesMasked(cur *graph.Graph, ih []graph.NodeID, remove []bool) int {
	for _, v := range ih {
		remove[v] = true
		for _, u := range cur.Neighbors(v) {
			remove[u] = true
		}
	}
	count := 0
	for u := 0; u < cur.N(); u++ {
		for _, v := range cur.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v && (remove[u] || remove[v]) {
				count++
			}
		}
	}
	for _, v := range ih {
		remove[v] = false
		for _, u := range cur.Neighbors(v) {
			remove[u] = false
		}
	}
	return count
}

// TestIncidentEdgesMatchesFullScan pins the Section 5 seed-search objective
// — incidentEdges, which touches only R = I_h ∪ N(I_h) — to the full-graph
// scan. Random candidate sets, from empty to every node, run against each
// workload's shrinking phase graphs through ONE pooled lowdegEval reused
// dirty across every call and workload; a last sequence drives the mark
// generation across its uint32 wrap.
func TestIncidentEdgesMatchesFullScan(t *testing.T) {
	workloads := []struct {
		family string
		n, avg int
		seed   uint64
	}{
		{"regular", 384, 8, 5},
		{"regular", 256, 12, 3},
		{"grid", 400, 4, 2},
		{"powerlaw", 320, 5, 7},
	}
	graphs := make([]*graph.Graph, len(workloads))
	maxN := 0
	for i, w := range workloads {
		g, err := gen.ByName(w.family, w.n, w.avg, w.seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
		maxN = max(maxN, g.N())
	}
	ev := &lowdegEval{mark: make([]uint32, maxN)}
	remove := make([]bool, maxN)
	src := detrand.New(31)
	// randomSet draws an ascending, duplicate-free candidate set holding
	// each node of g with probability 1/den.
	randomSet := func(g *graph.Graph, den int) []graph.NodeID {
		var ih []graph.NodeID
		for v := 0; v < g.N(); v++ {
			if src.Intn(den) == 0 {
				ih = append(ih, graph.NodeID(v))
			}
		}
		return ih
	}
	check := func(t *testing.T, cur *graph.Graph, ih []graph.NodeID, label string) {
		t.Helper()
		if got, want := incidentEdges(cur, ih, ev), removedEdgesMasked(cur, ih, remove); got != want {
			t.Fatalf("%s: incidentEdges = %d, full scan %d (|I_h| = %d)", label, got, want, len(ih))
		}
	}
	for i, w := range workloads {
		t.Run(fmt.Sprintf("%s/n=%d", w.family, w.n), func(t *testing.T) {
			cur := graphs[i]
			for phase := 0; cur.M() > 0; phase++ {
				for _, den := range []int{1, 2, 8, 64, 4 * cur.N()} {
					check(t, cur, randomSet(cur, den), fmt.Sprintf("phase %d density 1/%d", phase, den))
				}
				// Shrink like a Luby phase: a sparse set and its
				// neighbourhood leave the graph.
				gone := make([]bool, cur.N())
				for _, v := range randomSet(cur, 16) {
					gone[v] = true
					for _, u := range cur.Neighbors(v) {
						gone[u] = true
					}
				}
				cur = cur.WithoutNodes(gone)
			}
		})
	}
	t.Run("wrap", func(t *testing.T) {
		// Marks written at generation 1 must not read as live when the
		// counter wraps back to 1: mark every node at generation 1, park the
		// counter one step from wrapping, and cross the hard reset.
		g := graphs[0]
		ev.gen = 0
		check(t, g, randomSet(g, 1), "generation 1")
		ev.gen = ^uint32(0) - 1
		for i := 0; i < 4; i++ {
			check(t, g, randomSet(g, 4), fmt.Sprintf("wrap step %d (gen %d)", i, ev.gen))
		}
		if ev.gen == 0 || ev.gen > 3 {
			t.Fatalf("gen after wrap = %d, want a small positive generation", ev.gen)
		}
	})
}

func BenchmarkMISGrid(b *testing.B) {
	g := gen.Grid2D(32, 32)
	p := params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MIS(g, p, nil)
	}
}
