package coloring

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/parallel"
	"repro/internal/simcost"
)

// parallelPaths is the 2-path count the scan tests hand linialRound and
// verifyDistance2: at the serial cutoff, so at two or more workers their
// shards run concurrently whatever the graph's size.
const parallelPaths = parallel.SerialWork

// families lists every generator family gen.ByName accepts.
var families = []string{"gnm", "gnp", "powerlaw", "regular", "grid", "complete",
	"star", "path", "cycle", "tree", "caterpillar", "bipartite"}

// costModel returns the cost model of a solve of g at ε = 0.5, the one the
// solve's colouring charges.
func costModel(g *graph.Graph) *simcost.Model { return simcost.New(g.N(), g.M(), 0.5) }

// maxDegreeG2 returns Δ(G²) of g: the largest 2-ball minus its centre.
func maxDegreeG2(g *graph.Graph) int {
	var bs graph.BallScratch
	d := 0
	for v := 0; v < g.N(); v++ {
		d = max(d, len(g.BallUnsortedInto(&bs, graph.NodeID(v), 2))-1)
	}
	return d
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
		res := LinialG2(g, maxDegreeG2(g), 1, nil, costModel(g))
		if err := verifyDistance2(g, res.Colors, parallelPaths, 1, nil); err != nil {
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
		res := LinialG2(g, maxDegreeG2(g), 2, nil, costModel(g))
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
	gs, gl := gen.RandomRegular(1<<8, 4, 1), gen.RandomRegular(1<<14, 4, 1)
	small := LinialG2(gs, maxDegreeG2(gs), 2, nil, costModel(gs))
	large := LinialG2(gl, maxDegreeG2(gl), 2, nil, costModel(gl))
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
		res := LinialG2(g, maxDegreeG2(g), 2, nil, costModel(g))
		if err := verifyDistance2(g, res.Colors, parallelPaths, 2, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLinialG2ColourCountDelta4(t *testing.T) {
	g := gen.RandomRegular(2048, 4, 9)
	res := LinialG2(g, maxDegreeG2(g), 2, nil, costModel(g))
	d := g.MaxDegree()
	bound := 256 * d * d * d * d // O(Δ⁴) with implementation constant
	if res.NumColors > bound {
		t.Errorf("Δ=%d: %d colours > %d", d, res.NumColors, bound)
	}
	t.Logf("Δ=%d colours=%d", d, res.NumColors)
}

func TestLinialEmptyAndTrivial(t *testing.T) {
	res := LinialG2(graph.Empty(0), 0, 1, nil, costModel(graph.Empty(0)))
	if res.NumColors != 0 {
		t.Errorf("empty graph coloured with %d colours", res.NumColors)
	}
	res = LinialG2(graph.Empty(5), 0, 1, nil, costModel(graph.Empty(5)))
	if err := verifyDistance2(graph.Empty(5), res.Colors, parallelPaths, 1, nil); err != nil {
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
	LinialG2(g, maxDegreeG2(g), 1, nil, model)
	if model.Stats().Rounds == 0 {
		t.Error("no rounds charged")
	}
}

func TestLinialDeterministic(t *testing.T) {
	g := gen.GNM(200, 800, 5)
	a := LinialG2(g, maxDegreeG2(g), 1, nil, costModel(g))
	for _, w := range []int{1, 2, 8} {
		b := LinialG2(g, maxDegreeG2(g), w, nil, costModel(g))
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
		if err := verifyDistance2(g, []int{0, 1, 0}, parallelPaths, w, nil); err == nil {
			t.Errorf("distance-2 violation accepted at %d workers", w)
		}
		if err := verifyDistance2(g, []int{0, 1, 2}, parallelPaths, w, nil); err != nil {
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
		if err := verifyDistance2(h, colors, parallelPaths, w, nil); err == nil || err.Error() != want {
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
	digits := colourDigits(make([]uint32, g.N()*(d+1)), g.N(), q, d)
	table := make([]uint32, tablePoints*g.N())
	for _, w := range []int{1, 2, 8} {
		if v := linialRound(g, colors, make([]int, g.N()), digits, table, q, d, parallelPaths, w, nil); v != 10 {
			t.Errorf("workers=%d: round reported node %d, want 10", w, v)
		}
	}
	colors[12], colors[33] = 12, 33
	if v := linialRound(g, colors, make([]int, g.N()), digits, table, q, d, parallelPaths, 2, nil); v != -1 {
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
	for _, family := range families {
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
						got := LinialG2(h, maxDegreeG2(h), w, nil, model)
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

// TestLinialRoundMatchesWalkReference pins the tabulated round to the
// walk-and-evaluate reference round by round: every Linial round LinialG2
// runs, on every generator family at TestLinialG2MatchesSquareReference's
// sizes and average degrees, each graph together with its line graph, must
// write the same next colours and report the same node at Parallelism 1, 2
// and 8, into dirty buffers. It fails unless some node chooses a point past
// the table, so the direct-evaluation branch stays covered.
func TestLinialRoundMatchesWalkReference(t *testing.T) {
	checked, pastTable := 0, 0
	for _, family := range families {
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
					maxDeg2 := maxDegreeG2(h)
					colors := make([]int, h.N())
					for v := range colors {
						colors[v] = v
					}
					for numColors, round := h.N(), 1; ; round++ {
						q, d := linialParams(numColors, maxDeg2)
						if int(q*q) >= numColors {
							break
						}
						digits := colourDigits(make([]uint32, numColors*(d+1)), numColors, q, d)
						want := make([]int, h.N())
						if v := linialRoundWalk(h, colors, want, digits, q, d, 1); v >= 0 {
							t.Fatalf("%s round %d: reference reports node %d on LinialG2's own colouring", name, round, v)
						}
						for _, w := range []int{1, 2, 8} {
							got := slices.Repeat([]int{-7}, h.N())
							table := slices.Repeat([]uint32{^uint32(0)}, tablePoints*h.N())
							if v := linialRound(h, colors, got, digits, table, q, d, parallelPaths, w, nil); v != -1 {
								t.Fatalf("%s round %d workers=%d: round reported node %d, reference none", name, round, w, v)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s round %d workers=%d: next colours differ from the walk reference", name, round, w)
							}
						}
						for _, c := range want {
							if c/int(q) >= tablePoints {
								pastTable++
							}
						}
						colors, numColors = want, int(q*q)
					}
					checked++
				}
			}
		}
	}
	if pastTable == 0 {
		t.Fatalf("no node chose a point past the %d-point table in %d graphs: the direct-evaluation branch went unchecked", tablePoints, checked)
	}
	t.Logf("%d graphs checked, %d node rounds chose a point past the table", checked, pastTable)
}

// FuzzLinialRoundMatchesWalkReference holds linialRound to the walk
// reference on small graphs (n <= 64, edges from byte pairs) under
// arbitrary input colourings, proper or not, in a colour space of n + extra
// colours: at Parallelism 1, 2 and 8 the round must report the reference's
// node and, when neither reports one, write the reference's next colours.
func FuzzLinialRoundMatchesWalkReference(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4}, []byte{}, uint8(0))
	f.Add(uint8(12), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 5, 6, 6, 7}, []byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(7))
	f.Add(uint8(63), []byte{1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 1, 7, 8, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(200))
	f.Fuzz(func(t *testing.T, nb uint8, raw, cols []byte, extra uint8) {
		n := int(nb%64) + 1
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: graph.NodeID(int(raw[i]) % n), V: graph.NodeID(int(raw[i+1]) % n)})
		}
		g := graph.FromEdges(n, edges)
		numColors := n + int(extra)
		colors := make([]int, n)
		for v := range colors {
			colors[v] = v
			if v < len(cols) {
				colors[v] = int(cols[v]) % numColors
			}
		}
		q, d := linialParams(numColors, maxDegreeG2(g))
		digits := colourDigits(make([]uint32, numColors*(d+1)), numColors, q, d)
		want := make([]int, n)
		wantV := linialRoundWalk(g, colors, want, digits, q, d, 1)
		for _, w := range []int{1, 2, 8} {
			got := slices.Repeat([]int{-7}, n)
			table := slices.Repeat([]uint32{^uint32(0)}, tablePoints*n)
			v := linialRound(g, colors, got, digits, table, q, d, parallelPaths, w, nil)
			if v != wantV {
				t.Fatalf("workers=%d: round reported node %d, reference %d (colours %v)", w, v, wantV, colors)
			}
			if v < 0 && !slices.Equal(got, want) {
				t.Fatalf("workers=%d: next colours %v, reference %v", w, got, want)
			}
		}
	})
}

// TestLinialG2StopsWhenDone pins LinialG2's cancellation polls at 1, 2 and
// 8 workers: a done that never reports true leaves the colouring as it is
// without one, and a done that first reports true at any one of those
// polls makes LinialG2 return nil, charging nothing when it is the first.
// Every shard polls once, before its first node, so the number of polls
// is the same at every worker count.
func TestLinialG2StopsWhenDone(t *testing.T) {
	g := gen.Cycle(3000)
	d2 := maxDegreeG2(g)
	want := LinialG2(g, d2, 1, nil, costModel(g))
	if want.Rounds < 2 {
		t.Fatalf("%d Linial rounds: the table needs polls between rounds", want.Rounds)
	}
	for _, w := range []int{1, 2, 8} {
		var polls atomic.Int64
		never := func() bool { polls.Add(1); return false }
		if got := LinialG2(g, d2, w, never, costModel(g)); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: colouring with a never-true done differs", w)
		}
		total := polls.Load()
		for k := int64(0); k < total; k++ {
			var calls atomic.Int64
			done := func() bool { return calls.Add(1) > k }
			model := simcost.New(g.N(), g.M(), 0.5)
			if got := LinialG2(g, d2, w, done, model); got != nil {
				t.Fatalf("workers=%d: done true from poll %d of %d, yet LinialG2 returned a colouring", w, k+1, total)
			}
			if r := model.Stats().Rounds; k == 0 && r != 0 {
				t.Fatalf("workers=%d: done true from the first poll, yet %d rounds charged", w, r)
			}
		}
	}
}
