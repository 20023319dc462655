package coloring

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// maxDegreeG2 returns Δ(G²) of g: the largest 2-ball minus its centre.
func maxDegreeG2(g *graph.Graph) int {
	if g.N() == 0 {
		return 0
	}
	return g.BallSizeMax(2) - 1
}

func TestLinialProperOnFixtures(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":  gen.Path(100),
		"cycle": gen.Cycle(101),
		"grid":  gen.Grid2D(12, 13),
		"tree":  gen.RandomTree(200, 1),
		"gnm":   gen.GNM(300, 900, 2),
		"star":  gen.Star(50),
	} {
		res := LinialG2(g, 1, nil)
		if err := VerifyDistance2(g, res.Colors, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, c := range res.Colors {
			if c < 0 || c >= res.NumColors {
				t.Errorf("%s: colour %d outside [0,%d)", name, c, res.NumColors)
			}
		}
	}
}

func TestLinialColourCountPolyDelta(t *testing.T) {
	// Fixpoint is O(Δ(G²)²) colours; check against a generous constant,
	// independent of n.
	for _, n := range []int{256, 1024, 4096} {
		g := gen.RandomRegular(n, 6, uint64(n))
		res := LinialG2(g, 2, nil)
		d := maxDegreeG2(g)
		bound := 64 * d * d
		if res.NumColors > bound {
			t.Errorf("n=%d Δ(G²)=%d: %d colours > %d", n, d, res.NumColors, bound)
		}
	}
}

func TestLinialRoundsLogStar(t *testing.T) {
	// Round count grows extremely slowly with n (log* behaviour): going
	// from n=2^8 to n=2^14 must add at most 2 iterations.
	small := LinialG2(gen.RandomRegular(1<<8, 4, 1), 2, nil)
	large := LinialG2(gen.RandomRegular(1<<14, 4, 1), 2, nil)
	if large.Rounds > small.Rounds+2 {
		t.Errorf("rounds grew from %d to %d", small.Rounds, large.Rounds)
	}
	if large.Rounds > 8 {
		t.Errorf("too many Linial rounds: %d", large.Rounds)
	}
}

func TestLinialG2Distance2(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid": gen.Grid2D(10, 10),
		"tree": gen.RandomTree(300, 3),
		"reg":  gen.RandomRegular(500, 8, 4),
	} {
		res := LinialG2(g, 2, nil)
		if err := VerifyDistance2(g, res.Colors, 2); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLinialG2ColourCountDelta4(t *testing.T) {
	g := gen.RandomRegular(2048, 4, 9)
	res := LinialG2(g, 2, nil)
	d := g.MaxDegree()
	bound := 256 * d * d * d * d // O(Δ⁴) with implementation constant
	if res.NumColors > bound {
		t.Errorf("Δ=%d: %d colours > %d", d, res.NumColors, bound)
	}
	t.Logf("Δ=%d colours=%d", d, res.NumColors)
}

func TestLinialEmptyAndTrivial(t *testing.T) {
	res := LinialG2(graph.Empty(0), 1, nil)
	if res.NumColors != 0 {
		t.Errorf("empty graph coloured with %d colours", res.NumColors)
	}
	res = LinialG2(graph.Empty(5), 1, nil)
	if err := VerifyDistance2(graph.Empty(5), res.Colors, 1); err != nil {
		t.Error(err)
	}
	// With no edges a single colour suffices after compaction.
	if res.NumColors != 1 {
		t.Errorf("edgeless graph uses %d colours, want 1", res.NumColors)
	}
}

func TestLinialChargesModel(t *testing.T) {
	g := gen.Grid2D(20, 20)
	model := simcost.New(g.N(), g.M(), 0.5)
	LinialG2(g, 1, model)
	if model.Rounds() == 0 {
		t.Error("no rounds charged")
	}
}

func TestLinialDeterministic(t *testing.T) {
	g := gen.GNM(200, 800, 5)
	a := LinialG2(g, 1, nil)
	for _, w := range []int{1, 2, 8} {
		b := LinialG2(g, w, nil)
		if !slices.Equal(a.Colors, b.Colors) || a.NumColors != b.NumColors || a.Rounds != b.Rounds {
			t.Fatalf("nondeterministic colouring at %d workers", w)
		}
	}
}

func TestVerifyCatchesBadColouring(t *testing.T) {
	g := gen.Path(3)
	if err := VerifyProper(g, []int{0, 0, 1}); err == nil {
		t.Error("improper colouring accepted")
	}
	for _, w := range []int{1, 2, 8} {
		if err := VerifyDistance2(g, []int{0, 1, 0}, w); err == nil {
			t.Errorf("distance-2 violation accepted at %d workers", w)
		}
		if err := VerifyDistance2(g, []int{0, 1, 2}, w); err != nil {
			t.Errorf("valid distance-2 colouring rejected at %d workers: %v", w, err)
		}
	}
	// The report names the lowest failing node and its lowest clashing
	// node within distance 2 — 1, though the walk from 0 meets 9 first —
	// whatever the worker count.
	h := graph.FromEdges(10, []graph.Edge{{U: 0, V: 9}, {U: 9, V: 1}})
	colors := []int{5, 5, 2, 3, 4, 6, 7, 8, 0, 5}
	want := "nodes 0 and 1 within distance 2 share colour 5"
	for _, w := range []int{1, 2, 8} {
		if err := VerifyDistance2(h, colors, w); err == nil || err.Error() != want {
			t.Errorf("workers=%d: got %v, want %q", w, err, want)
		}
	}
}

// TestLinialRoundRejectsImproperColouring pins the round's assertion: a
// node sharing its colour with a G²-neighbour is reported, the lowest one
// at any worker count, so LinialG2 can panic on its own goroutine.
func TestLinialRoundRejectsImproperColouring(t *testing.T) {
	g := gen.Cycle(40)
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = v
	}
	colors[12], colors[33] = 10, 35 // 10~12 and 33~35 are at distance 2
	q, d := linialParams(g.N(), maxDegreeG2(g))
	digits := colourDigits(make([]uint64, g.N()*(d+1)), g.N(), q, d)
	balls := scratch.NewPerWorker(func() *graph.BallScratch { return new(graph.BallScratch) })
	for _, w := range []int{1, 2, 8} {
		if v := linialRound(g, colors, make([]int, g.N()), digits, q, d, w, balls); v != 10 {
			t.Errorf("workers=%d: round reported node %d, want 10", w, v)
		}
	}
	colors[12], colors[33] = 12, 33
	if v := linialRound(g, colors, make([]int, g.N()), digits, q, d, 2, balls); v != -1 {
		t.Errorf("proper colouring: round reported node %d", v)
	}
}

func TestSquareOfPath(t *testing.T) {
	// P5 squared: node 2 additionally sees 0 and 4.
	g := square(gen.Path(5))
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 4) || g.HasEdge(0, 3) {
		t.Error("Square of P5 wrong")
	}
	if g.Degree(2) != 4 {
		t.Errorf("deg_G2(2) = %d, want 4", g.Degree(2))
	}
}

func TestSquareContainsOriginal(t *testing.T) {
	g := gen.Complete(3)
	sq := square(g)
	for _, e := range g.Edges() {
		if !sq.HasEdge(e.U, e.V) {
			t.Errorf("G² missing original edge %v", e)
		}
	}
}

// TestLinialG2MatchesSquareReference pins the implicit colouring to Linial
// on the materialised square: colours, colour count, rounds and every model
// charge, at Parallelism 1, 2 and 8, over every generator family at several
// sizes and average degrees, each graph together with its line graph.
// Graphs with Δ > 40 are skipped: their reference squares cost more than
// they add.
func TestLinialG2MatchesSquareReference(t *testing.T) {
	checked := 0
	for _, family := range gen.Names() {
		for _, n := range []int{0, 1, 2, 5, 17, 64, 300, 1024, 2048} {
			for _, avg := range []int{2, 3, 6} {
				g, err := gen.ByName(family, n, avg, uint64(n+avg))
				if err != nil {
					t.Fatal(err)
				}
				if g.MaxDegree() > 40 {
					continue
				}
				lg, _ := g.LineGraph()
				for _, h := range []*graph.Graph{g, lg} {
					if h.MaxDegree() > 40 {
						continue
					}
					name := fmt.Sprintf("%s/n%d/avg%d/N%d", family, n, avg, h.N())
					wantModel := simcost.New(h.N(), h.M(), 0.5)
					want := linialG2Reference(h, wantModel)
					for _, w := range []int{1, 2, 8} {
						model := simcost.New(h.N(), h.M(), 0.5)
						got := LinialG2(h, w, model)
						if !slices.Equal(got.Colors, want.Colors) || got.NumColors != want.NumColors || got.Rounds != want.Rounds {
							t.Fatalf("%s workers=%d: colouring (%d colours, %d rounds) differs from the square reference (%d colours, %d rounds)",
								name, w, got.NumColors, got.Rounds, want.NumColors, want.Rounds)
						}
						if !reflect.DeepEqual(model.Stats(), wantModel.Stats()) {
							t.Fatalf("%s workers=%d: model charges %+v differ from the square reference %+v",
								name, w, model.Stats(), wantModel.Stats())
						}
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d graphs checked", checked)
}
