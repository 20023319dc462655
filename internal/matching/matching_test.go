package matching

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
	if ok, reason := check.IsMaximalMatching(g, res.Matching); !ok {
		t.Fatalf("not a maximal matching: %s", reason)
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
		if name == "complete" && len(res.Matching) != 30 {
			t.Errorf("K60 matching size %d, want 30", len(res.Matching))
		}
		if name == "star" && len(res.Matching) != 1 {
			t.Errorf("star matching size %d, want 1", len(res.Matching))
		}
		if name == "empty" && len(res.Matching) != 0 {
			t.Errorf("empty graph matched %d edges", len(res.Matching))
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
		if len(res.Rounds) == 0 {
			t.Errorf("%s: no iterations recorded", tc.name)
		}
	}
}

func TestIterationCountLogarithmic(t *testing.T) {
	// Theorem 7 shape: iterations = O(log m). Measured against a generous
	// constant; the experiment harness reports the precise scaling.
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
		if st.EdgesAfter >= st.EdgesBefore {
			t.Fatalf("iteration %d made no progress: %d -> %d",
				i+1, st.EdgesBefore, st.EdgesAfter)
		}
	}
	// The paper's analysis promises Ω(δ)|E| removal per iteration; with
	// half-thresholds the removal stays above δ/(2·536) whenever the seed
	// search succeeded.
	p := params()
	minFrac := p.ThresholdFrac * p.Delta() / 536
	for i, st := range res.Rounds {
		if st.SeedFound && st.RemovedFraction() < minFrac {
			t.Errorf("iteration %d removed %.5f < %.5f of edges despite threshold success",
				i+1, st.RemovedFraction(), minFrac)
		}
	}
}

func TestDeterministicIsDeterministic(t *testing.T) {
	g := gen.GNM(512, 4096, 9)
	a := Deterministic(g, params(), costModel(g, params()))
	b := Deterministic(g, params(), costModel(g, params()))
	if len(a.Matching) != len(b.Matching) {
		t.Fatalf("matching sizes differ: %d vs %d", len(a.Matching), len(b.Matching))
	}
	for i := range a.Matching {
		if a.Matching[i] != b.Matching[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Matching[i], b.Matching[i])
		}
	}
	// Parallel seed evaluation must not change the result.
	pp := params()
	pp.Parallelism = 1
	c := Deterministic(g, pp, costModel(g, pp))
	if len(a.Matching) != len(c.Matching) {
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
	// O(1) rounds per iteration: total rounds <= C·iterations for a
	// scale-independent constant C (each iteration: O(1) sorts, scans,
	// batches and stage loops bounded by 1/δ).
	maxPerIter := 40 * (1 + core.StageCount(16))
	if st.Rounds > len(res.Rounds)*maxPerIter {
		t.Errorf("rounds %d too high for %d iterations", st.Rounds, len(res.Rounds))
	}
	for _, v := range model.Violations() {
		t.Errorf("space violation: %s", v)
	}
}

func TestSeedSearchUsuallyFast(t *testing.T) {
	g := gen.GNM(2048, 2048*8, 13)
	res := Deterministic(g, params(), costModel(g, params()))
	totalSeeds, found := 0, 0
	for _, st := range res.Rounds {
		totalSeeds += st.SeedsTried
		if st.SeedFound {
			found++
		}
	}
	if found == 0 {
		t.Error("no iteration met its progress threshold")
	}
	if avg := float64(totalSeeds) / float64(len(res.Rounds)); avg > 512 {
		t.Errorf("average seeds/iteration %.1f too high", avg)
	}
}

func TestNoFallbacksOnReasonableInputs(t *testing.T) {
	g := gen.GNM(1024, 4096, 17)
	res := Deterministic(g, params(), costModel(g, params()))
	if res.FallbackPicks > 0 {
		t.Errorf("%d fallback picks on a benign graph", res.FallbackPicks)
	}
}

func TestMatchedEdgesComeFromGraph(t *testing.T) {
	g := gen.PowerLaw(600, 2400, 2.3, 19)
	res := Deterministic(g, params(), costModel(g, params()))
	for _, e := range res.Matching {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("matched edge %v not in input graph", e)
		}
	}
}

func TestSmallEpsilon(t *testing.T) {
	// ε = 0.25 gives tiny machines (S = n^0.25); the algorithm must still
	// be correct, with space pressure surfacing only as model violations.
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

// TestMaxTwoHopWordsMatchesSerial pins maxTwoHopWords to a plain loop over
// the B-nodes' 2-hop neighbourhoods at 1, 2 and 8 workers, on E* graphs on
// both sides of internal/parallel's serial cutoff (n + 2|E*| = 4608 and
// 135168): the solves' E* stays below it at the determinism tables' sizes,
// so this is where its pool path runs under -race.
func TestMaxTwoHopWordsMatchesSerial(t *testing.T) {
	for _, estar := range []*graph.Graph{gen.GNM(512, 2048, 1), gen.GNM(4096, 65536, 2)} {
		b := make([]bool, estar.N())
		for v := range b {
			b[v] = v%3 != 0
		}
		want := 0
		for v := 0; v < estar.N(); v++ {
			if !b[v] {
				continue
			}
			words := 2 * estar.Degree(graph.NodeID(v))
			for _, u := range estar.Neighbors(graph.NodeID(v)) {
				words += 2 * estar.Degree(u)
			}
			want = max(want, words)
		}
		for _, workers := range []int{1, 2, 8} {
			if got := maxTwoHopWords(estar, b, workers); got != want {
				t.Fatalf("n=%d m=%d workers=%d: %d words, want %d", estar.N(), estar.M(), workers, got, want)
			}
		}
	}
}
