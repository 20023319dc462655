package mpcgraph

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
)

// inMemoryReference recomputes the protocol's election and matching with
// the in-memory primitives: same seed batch, objective |E_h|, first
// maximum wins.
func inMemoryReference(g *graph.Graph, batch int) (int, []graph.Edge) {
	n := g.N()
	fam := core.PairwiseFamily(n)
	ev := hashfam.NewEvaluator(fam)
	edges := g.Edges()
	keys := core.SlotKeysInto(nil, edges, 0, n)
	var sel core.EdgeSel
	core.EdgeSelInit(&sel, n, edges, nil, fam.P()-1)
	var lm core.EdgeMinScratch
	z := make([]uint64, len(keys))
	enum := fam.Enumerate()
	bestIdx := 0
	var best []graph.Edge
	for i := 0; i < batch && enum.Next(); i++ {
		eh := core.LocalMinEdgesSel(&lm, &sel, ev.EvalKeys(enum.Seed(), keys, z))
		if best == nil || len(eh) > len(best) {
			bestIdx = i
			best = append([]graph.Edge{}, eh...)
		}
	}
	return bestIdx, best
}

func TestDetLubyStepMatchesInMemory(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid":  gen.Grid2D(8, 9),
		"cycle": gen.Cycle(40),
		"reg4":  gen.RandomRegular(60, 4, 3),
		"tree":  gen.RandomTree(80, 5),
	} {
		res, err := DetLubyMatchingStep(g, 8, 1<<14, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantIdx, wantEdges := inMemoryReference(g, 16)
		if res.SeedIndex != wantIdx {
			t.Errorf("%s: cluster elected seed %d, in-memory %d (counts %v)",
				name, res.SeedIndex, wantIdx, res.SeedCounts)
		}
		if len(res.Matching) != len(wantEdges) {
			t.Fatalf("%s: matching size %d, want %d", name, len(res.Matching), len(wantEdges))
		}
		for i := range wantEdges {
			if res.Matching[i] != wantEdges[i] {
				t.Fatalf("%s: edge %d = %v, want %v", name, i, res.Matching[i], wantEdges[i])
			}
		}
	}
}

func TestDetLubyStepProducesMatching(t *testing.T) {
	g := gen.RandomRegular(100, 6, 7)
	res, err := DetLubyMatchingStep(g, 10, 1<<14, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := check.IsMatching(g, res.Matching); !ok {
		t.Fatal(reason)
	}
	if len(res.Matching) == 0 {
		t.Error("empty candidate matching on a non-empty graph")
	}
}

func TestDetLubyStepConstantRounds(t *testing.T) {
	// The whole step must cost a constant number of rounds independent of
	// the graph size — the O(1) claim of Section 3.3.
	var rounds []int
	for _, n := range []int{50, 100, 200} {
		g := gen.RandomRegular(n, 4, uint64(n))
		res, err := DetLubyMatchingStep(g, 8, 1<<14, 8)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, res.Stats.Rounds)
	}
	for _, r := range rounds {
		if r != rounds[0] {
			t.Errorf("round count varies with n: %v", rounds)
		}
	}
	if rounds[0] > 16 {
		t.Errorf("step took %d rounds; expected a small constant", rounds[0])
	}
}

func TestDetLubyStepNoSpaceViolationsOnLowDegree(t *testing.T) {
	g := gen.Grid2D(12, 12)
	res, err := DetLubyMatchingStep(g, 12, 1<<12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Violations) != 0 {
		t.Errorf("violations on a low-degree graph: %v", res.Stats.Violations)
	}
}

func TestDetLubyStepSeedCountsConsistent(t *testing.T) {
	g := gen.Cycle(30)
	res, err := DetLubyMatchingStep(g, 4, 1<<12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.SeedCounts[res.SeedIndex]) != len(res.Matching) {
		t.Errorf("elected seed count %d != matching size %d",
			res.SeedCounts[res.SeedIndex], len(res.Matching))
	}
	for i, c := range res.SeedCounts {
		if c > res.SeedCounts[res.SeedIndex] {
			t.Errorf("seed %d has count %d above elected %d", i, c, res.SeedCounts[res.SeedIndex])
		}
	}
}

func TestDetLubyStepRejectsBadBatch(t *testing.T) {
	if _, err := DetLubyMatchingStep(gen.Path(4), 2, 1024, 0); err == nil {
		t.Error("batch 0 accepted")
	}
}
