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
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

func params() core.Params { return core.DefaultParams() }

// costModel returns the cost model of a solve of g under p, the one every
// solve charges.
func costModel(g *graph.Graph, p core.Params) *simcost.Model {
	return simcost.New(g.N(), g.M(), p.Epsilon)
}

func TestMISMaximalOnLowDegreeFixtures(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":  gen.Path(200),
		"cycle": gen.Cycle(201),
		"grid":  gen.Grid2D(20, 25),
		"tree":  gen.RandomTree(500, 1),
		"reg4":  gen.RandomRegular(512, 4, 2),
		"reg8":  gen.RandomRegular(512, 8, 3),
	} {
		res := MIS(g, params(), costModel(g, params()))
		if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
			t.Errorf("%s: %s", name, reason)
		}
	}
}

func TestMISEmptyGraph(t *testing.T) {
	res := MIS(graph.Empty(7), params(), costModel(graph.Empty(7), params()))
	if len(res.IndependentSet) != 7 {
		t.Errorf("MIS of empty graph = %d nodes, want 7", len(res.IndependentSet))
	}
	if res.Stages != 0 {
		t.Errorf("empty graph ran %d stages", res.Stages)
	}
}

func TestPhasesMakeProgress(t *testing.T) {
	g := gen.RandomRegular(1024, 6, 5)
	res := MIS(g, params(), costModel(g, params()))
	for i, ph := range res.Rounds {
		if ph.EdgesAfter >= ph.EdgesBefore {
			t.Fatalf("phase %d: no progress", i+1)
		}
	}
}

func TestStageCompressionStructure(t *testing.T) {
	g := gen.Grid2D(64, 64) // Δ = 4 keeps ℓ >= 2 under the default budget
	res := MIS(g, params(), costModel(g, params()))
	if res.Ell < 2 {
		t.Skipf("ℓ = %d; budget too small for compression on this host", res.Ell)
	}
	if res.Radius != 2*res.Ell {
		t.Errorf("radius %d != 2ℓ = %d", res.Radius, 2*res.Ell)
	}
	// Stages must be fewer than phases when ℓ > 1 (that is the compression).
	if res.Stages >= len(res.Rounds) && len(res.Rounds) > res.Ell {
		t.Errorf("no compression: %d stages for %d phases", res.Stages, len(res.Rounds))
	}
	if res.RoundsPaper <= 0 || res.RoundsExecuted < res.RoundsPaper {
		t.Errorf("round accounting odd: paper=%d executed=%d", res.RoundsPaper, res.RoundsExecuted)
	}
}

func TestPhaseCountLogarithmic(t *testing.T) {
	g := gen.RandomRegular(2048, 4, 7)
	res := MIS(g, params(), costModel(g, params()))
	bound := int(6 * math.Log2(float64(g.M())))
	if len(res.Rounds) > bound {
		t.Errorf("phases %d exceed 6·log2(m) = %d", len(res.Rounds), bound)
	}
	t.Logf("n=%d Δ=%d phases=%d stages=%d ℓ=%d colors=%d",
		g.N(), g.MaxDegree(), len(res.Rounds), res.Stages, res.Ell, res.Colors)
}

func TestStagesGrowWithDelta(t *testing.T) {
	// The point of Theorem 1: stages ~ O(log Δ) at fixed n. We check the
	// weaker monotone-ish claim that stage counts stay within a small
	// multiple of log Δ across the sweep.
	n := 1024
	for _, d := range []int{4, 8, 16} {
		g := gen.RandomRegular(n, d, uint64(d))
		res := MIS(g, params(), costModel(g, params()))
		if res.Stages > 12*int(math.Log2(float64(d)))+12 {
			t.Errorf("Δ=%d: %d stages too many", d, res.Stages)
		}
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.RandomRegular(512, 6, 11)
	a := MIS(g, params(), costModel(g, params()))
	b := MIS(g, params(), costModel(g, params()))
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
	if model.Stats().Rounds == 0 {
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
	// n = 4096 at ε = 0.5: S = 64, budget 512.
	if !Suitable(gen.Grid2D(64, 64), params()) {
		t.Error("grid (Δ=4, Δ⁴=256) should be suitable")
	}
	if Suitable(gen.Star(4096), params()) {
		t.Error("star (Δ=4095) should not be suitable")
	}
	if !Suitable(graph.Empty(10), params()) {
		t.Error("empty graph should be suitable")
	}
}

// TestEllSizedByInputBudget pins the ℓ the Section 5 paths run with to the
// input graph's machine budget simcost.Budget(n, ε), the one a model of it
// enforces: MISIn's from G's Δ, and the matching's from L(G)'s Δ with G's
// budget. On the Möbius ladders (edges {i, i+1 mod n} and {i, i+n/2})
// ⌈n^ε⌉ lies below the budget's floor S = 16, which lifts the MIS's ℓ from
// 1 to 2; on the 128-node path at ε = 1 the line graph's own budget, 8·127,
// would give the matching ℓ = 4 for G's 5.
func TestEllSizedByInputBudget(t *testing.T) {
	ladder := func(n int) *graph.Graph {
		var edges []graph.Edge
		for i := 0; i < n; i++ {
			edges = append(edges, graph.Edge{U: graph.NodeID(i), V: graph.NodeID((i + 1) % n)})
			if i < n/2 {
				edges = append(edges, graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + n/2)})
			}
		}
		return graph.FromEdges(n, edges)
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		eps     float64
		mis, mm int
	}{
		{"ladder64", ladder(64), 0.5, 2, 1},
		{"ladder100", ladder(100), 0.5, 2, 1},
		{"ladder4096", ladder(4096), 0.25, 2, 1},
		{"grid", gen.Grid2D(20, 25), 0.5, 1, 1},
		{"reg6", gen.RandomRegular(512, 6, 11), 0.5, 1, 1},
		{"path", gen.Path(128), 1, 5, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, p := tc.g, params().WithEpsilon(tc.eps)
			if got := MISIn(scratch.New(), g, p, costModel(g, p)).Ell; got != tc.mis {
				t.Errorf("MIS ran with ℓ = %d, want %d", got, tc.mis)
			}
			if got := MaximalMatchingIn(scratch.New(), g, p, costModel(g, p)).MIS.Ell; got != tc.mm {
				t.Errorf("matching ran with ℓ = %d, want %d", got, tc.mm)
			}
		})
	}
}

func TestMaximalMatchingViaLineGraph(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path": gen.Path(150),
		"grid": gen.Grid2D(15, 15),
		"reg6": gen.RandomRegular(400, 6, 13),
	} {
		res := MaximalMatchingIn(scratch.New(), g, params(), costModel(g, params()))
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

// maxBallWords is the r-ball word pass as it was before ballStats fused it
// with the Δ(G²) pass: the largest Σ (1 + deg u) over Ball(v, r), from a
// walk of its own. It and maxDegreeG2 state parallel.SerialWork as their
// work, so at two or more workers their shards run concurrently at every
// size.
func maxBallWords(g *graph.Graph, r, workers int) int {
	pool := scratch.NewPerWorker(func() *graph.BallScratch { return new(graph.BallScratch) })
	return parallel.MaxInt(workers, g.N(), parallel.SerialWork, func(lo, hi int) int {
		bs := pool.Get()
		max := 0
		for v := lo; v < hi; v++ {
			words := 0
			for _, u := range g.BallUnsortedInto(bs, graph.NodeID(v), r) {
				words += 1 + g.Degree(u)
			}
			if words > max {
				max = words
			}
		}
		pool.Put(bs)
		return max
	})
}

// maxDegreeG2 is the Δ(G²) pass coloring.LinialG2 made before it took the
// value from its caller: the largest 2-ball minus its centre, from a
// radius-2 walk of its own.
func maxDegreeG2(g *graph.Graph, workers int) int {
	pool := scratch.NewPerWorker(func() *graph.BallScratch { return new(graph.BallScratch) })
	return parallel.MaxInt(workers, g.N(), parallel.SerialWork, func(lo, hi int) int {
		bs := pool.Get()
		max := 0
		for v := lo; v < hi; v++ {
			if d := len(g.BallUnsortedInto(bs, graph.NodeID(v), 2)) - 1; d > max {
				max = d
			}
		}
		pool.Put(bs)
		return max
	})
}

// families lists every generator family gen.ByName accepts.
var families = []string{"gnm", "gnp", "powerlaw", "regular", "grid", "complete",
	"star", "path", "cycle", "tree", "caterpillar", "bipartite"}

// TestBallStatsMatchesSeparateWalks pins the one r-ball walk to the two
// walks it replaced: ballStats must return maxBallWords' word count and the
// radius-2 walk's Δ(G²) at r = 2, 4 and 6 and Parallelism 1, 2 and 8, on
// every generator family at several sizes and degrees, each graph together
// with its line graph. Its shards poll a done that never reports true.
func TestBallStatsMatchesSeparateWalks(t *testing.T) {
	never := func() bool { return false }
	for _, family := range families {
		for _, n := range []int{0, 1, 2, 17, 150} {
			for _, avg := range []int{2, 3, 6} {
				g, err := gen.ByName(family, n, avg, uint64(n+avg))
				if err != nil {
					t.Fatal(err)
				}
				if g.MaxDegree() > 40 {
					continue // its line graph's 6-balls cost more than they add
				}
				lg, _ := g.LineGraph()
				for _, h := range []*graph.Graph{g, lg} {
					wantDeg2 := maxDegreeG2(h, 1)
					for _, r := range []int{2, 4, 6} {
						wantWords := maxBallWords(h, r, 1)
						for _, w := range []int{1, 2, 8} {
							words, deg2 := ballStats(h, r, w, never)
							if words != wantWords || deg2 != wantDeg2 {
								t.Fatalf("%s/n%d/avg%d/N%d r=%d workers=%d: ballStats = (%d words, Δ(G²) %d), separate walks (%d, %d)",
									family, n, avg, h.N(), r, w, words, deg2, wantWords, wantDeg2)
							}
						}
					}
				}
			}
		}
	}
}

func BenchmarkMISGrid(b *testing.B) {
	g := gen.Grid2D(32, 32)
	p := params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MIS(g, p, costModel(g, p))
	}
}

// TestMISInCanceledInPreprocessing: a Done that reports true from its first
// call stops MISIn in the Section 5 preprocessing, before the colouring. On
// a star's line graph, K_k, where every preprocessing pass costs Θ(k³),
// MISIn returns Canceled at 1, 2 and 8 workers with no phase run, no node
// in the set and no round charged: nothing before the colouring charges.
func TestMISInCanceledInPreprocessing(t *testing.T) {
	lg, _ := gen.Star(301).LineGraph()
	for _, w := range []int{1, 2, 8} {
		p := params()
		p.Parallelism = w
		p.Done = func() bool { return true }
		model := simcost.New(lg.N(), lg.M(), p.Epsilon)
		res := MISIn(scratch.New(), lg, p, model)
		if !res.Canceled || len(res.Rounds) != 0 || len(res.IndependentSet) != 0 {
			t.Fatalf("workers=%d: Canceled=%v with %d phases and %d nodes, want a canceled solve with none",
				w, res.Canceled, len(res.Rounds), len(res.IndependentSet))
		}
		if r := model.Stats().Rounds; r != 0 {
			t.Errorf("workers=%d: %d rounds charged", w, r)
		}
	}
}
