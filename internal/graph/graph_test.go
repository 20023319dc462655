package graph

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func triangle() *Graph {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := Empty(5)
	if g.N() != 5 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Errorf("Empty(5): n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	var zero Graph
	if zero.N() != 0 || zero.M() != 0 {
		t.Error("zero-value Graph should be the empty graph")
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if g.Degree(2) != 1 {
		t.Errorf("self loop not dropped: deg(2)=%d", g.Degree(2))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestTriangleBasics(t *testing.T) {
	g := triangle()
	if g.N() != 3 || g.M() != 3 || g.MaxDegree() != 2 {
		t.Fatalf("triangle wrong: %v", g)
	}
	for v := NodeID(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("deg(%d) = %d", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 2) || g.HasEdge(0, 0) {
		t.Error("HasEdge wrong")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(3, 5)
	b.AddEdge(3, 1)
	b.AddEdge(3, 4)
	b.AddEdge(3, 0)
	g := b.Build()
	nbrs := g.Neighbors(3)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbours not sorted: %v", nbrs)
		}
	}
}

func TestEdgesCanonicalAndComplete(t *testing.T) {
	g := triangle()
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("|edges| = %d", len(edges))
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("edge not canonical: %v", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge list contains non-edge %v", e)
		}
	}
}

func TestEdgeKeyInjective(t *testing.T) {
	n := 50
	seen := map[uint64]Edge{}
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			e := Edge{u, v}
			k := e.Key(n)
			if prev, dup := seen[k]; dup {
				t.Fatalf("key collision: %v and %v -> %d", prev, e, k)
			}
			seen[k] = e
		}
	}
	// Canonicalisation: both orientations give the same key.
	if (Edge{7, 3}).Key(n) != (Edge{3, 7}).Key(n) {
		t.Error("Key not orientation-invariant")
	}
}

func TestWithoutNodes(t *testing.T) {
	g := triangle()
	h := g.WithoutNodes([]bool{true, false, false})
	if h.N() != 3 {
		t.Fatalf("id space changed: n=%d", h.N())
	}
	if h.M() != 1 || !h.HasEdge(1, 2) || h.Degree(0) != 0 {
		t.Errorf("WithoutNodes wrong: m=%d", h.M())
	}
}

func TestInducedNodes(t *testing.T) {
	// Path 0-1-2-3; induce on {0,1,3}: only edge 0-1 survives.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	h := g.InducedNodes([]bool{true, true, false, true})
	if h.M() != 1 || !h.HasEdge(0, 1) {
		t.Errorf("InducedNodes wrong: m=%d", h.M())
	}
}

func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	return b.Build()
}

func TestLineGraphOfTriangle(t *testing.T) {
	// L(K3) = K3.
	lg, edges := triangle().LineGraph()
	if lg.N() != 3 || lg.M() != 3 {
		t.Errorf("L(K3): n=%d m=%d, want 3,3", lg.N(), lg.M())
	}
	if len(edges) != 3 {
		t.Errorf("edge list length %d", len(edges))
	}
}

func TestLineGraphOfPath(t *testing.T) {
	// L(P4) = P3.
	lg, _ := Path(4).LineGraph()
	if lg.N() != 3 || lg.M() != 2 {
		t.Errorf("L(P4): n=%d m=%d, want 3,2", lg.N(), lg.M())
	}
}

// lineGraphMapIndexed is the map-indexed line graph that LineGraph's CSR
// slot labeling replaced, kept as its reference: a map from canonical edge
// to id, then every pair of edges at each node through a Builder (whose
// FromEdges sorts and deduplicates).
func lineGraphMapIndexed(g *Graph) (*Graph, []Edge) {
	edges := g.Edges()
	index := make(map[Edge]int32, len(edges))
	for i, e := range edges {
		index[e] = int32(i)
	}
	b := NewBuilder(len(edges))
	var ids []int32
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(NodeID(v))
		ids = Grow(ids, len(nbrs))
		for i, u := range nbrs {
			ids[i] = index[Edge{NodeID(v), u}.Canon()]
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				b.AddEdge(ids[i], ids[j])
			}
		}
	}
	return b.Build(), edges
}

// completeGraph returns K_n.
func completeGraph(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// TestLineGraphMatchesMapReference pins the CSR-slot LineGraph to the
// map-indexed reference, graph and edge list alike, on empty, sparse,
// dense, structured and isolated-node graphs.
func TestLineGraphMatchesMapReference(t *testing.T) {
	graphs := map[string]*Graph{
		"zero":     FromEdges(0, nil),
		"isolated": Empty(9),
		"triangle": triangle(),
		"path":     Path(50),
		"star":     FromEdges(40, starEdges(40)),
		"k24":      completeGraph(24),
	}
	for _, tc := range []struct{ n, m int }{{2, 1}, {7, 9}, {64, 256}, {200, 1500}, {333, 40}, {500, 4000}, {60, 1700}} {
		graphs[fmt.Sprintf("pseudo-n%d-m%d", tc.n, tc.m)] = pseudoGraph(tc.n, tc.m, uint64(tc.n*131+tc.m))
	}
	for name, g := range graphs {
		lg, edges := g.LineGraph()
		want, wantEdges := lineGraphMapIndexed(g)
		if !lg.Same(want) {
			t.Errorf("%s: LineGraph differs from the map-indexed reference (n=%d m=%d, want n=%d m=%d)",
				name, lg.N(), lg.M(), want.N(), want.M())
		}
		if !reflect.DeepEqual(edges, wantEdges) {
			t.Errorf("%s: LineGraph edge list differs from the canonical edge list", name)
		}
	}
}

// TestEdgeIDsIntoLabelsCanonicalIDs checks every adjacency slot's label
// against the position of its edge in the canonical edge list, on dirty
// buffers.
func TestEdgeIDsIntoLabelsCanonicalIDs(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1, 0}, {7, 9}, {64, 256}, {200, 1500}, {333, 40}} {
		g := pseudoGraph(tc.n, tc.m, uint64(tc.n*17+tc.m))
		id := make(map[Edge]int32, g.M())
		for i, e := range g.Edges() {
			id[e] = int32(i)
		}
		eid := make([]int32, 2*g.M())
		cursor := make([]int32, g.N())
		for i := range eid {
			eid[i] = -7
		}
		for i := range cursor {
			cursor[i] = 99
		}
		g.EdgeIDsInto(eid, cursor)
		for u := 0; u < g.N(); u++ {
			for k, v := range g.Neighbors(NodeID(u)) {
				want := id[Edge{NodeID(u), v}.Canon()]
				if got := eid[g.offsets[u]+int32(k)]; got != want {
					t.Fatalf("n=%d m=%d: slot %d->%d labeled %d, edge id %d", tc.n, tc.m, u, v, got, want)
				}
			}
		}
	}
}

// starEdges lists the edges of the star on n nodes centred at 0.
func starEdges(n int) []Edge {
	edges := make([]Edge, 0, n)
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{0, NodeID(v)})
	}
	return edges
}

func TestLineGraphDegreeIdentity(t *testing.T) {
	// d_L(e) = d(u) + d(v) - 2 for e = {u,v}.
	b := NewBuilder(7)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {3, 6}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	lg, edges := g.LineGraph()
	for i, e := range edges {
		want := g.Degree(e.U) + g.Degree(e.V) - 2
		if got := lg.Degree(NodeID(i)); got != want {
			t.Errorf("d_L(%v) = %d, want %d", e, got, want)
		}
	}
}

func TestBall(t *testing.T) {
	g := Path(7)
	ball := g.Ball(3, 2)
	want := []NodeID{1, 2, 3, 4, 5}
	if len(ball) != len(want) {
		t.Fatalf("Ball(3,2) = %v, want %v", ball, want)
	}
	for i := range want {
		if ball[i] != want[i] {
			t.Fatalf("Ball(3,2) = %v, want %v", ball, want)
		}
	}
	if s := g.BallSizeMax(1); s != 3 {
		t.Errorf("BallSizeMax(1) = %d, want 3", s)
	}
}

func TestBallRadiusZero(t *testing.T) {
	g := triangle()
	if ball := g.Ball(1, 0); len(ball) != 1 || ball[0] != 1 {
		t.Errorf("Ball(v,0) = %v", ball)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	label, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if label[0] != label[2] || label[3] != label[4] || label[0] == label[3] || label[5] == label[0] {
		t.Errorf("labels wrong: %v", label)
	}
}

func TestDegreeSumIsTwiceM(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 40
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(NodeID(raw[i]%n), NodeID(raw[i+1]%n))
		}
		g := b.Build()
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(NodeID(v))
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 30
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(NodeID(raw[i]%n), NodeID(raw[i+1]%n))
		}
		g := b.Build()
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(NodeID(v)) {
				if !g.HasEdge(u, NodeID(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// InducedNodes returns the subgraph induced on the nodes with keep[v]==true,
// preserving node ids (nodes outside the set become isolated), at the
// pool's automatic worker count.
func (g *Graph) InducedNodes(keep []bool) *Graph { return g.InducedNodesW(keep, 0) }

// InducedNodesW is InducedNodesInto into a fresh CSR.
func (g *Graph) InducedNodesW(keep []bool, workers int) *Graph {
	dst := new(CSR)
	g.InducedNodesInto(keep, workers, dst)
	return dst.detach()
}

// BallSizeMax returns the largest |Ball(v, r)| over all nodes.
func (g *Graph) BallSizeMax(r int) int {
	s := new(BallScratch)
	max := 0
	for v := 0; v < g.N(); v++ {
		if l := len(g.BallUnsortedInto(s, NodeID(v), r)); l > max {
			max = l
		}
	}
	return max
}

// ConnectedComponents returns a component label per node and the component
// count.
func (g *Graph) ConnectedComponents() ([]int, int) {
	label := make([]int, g.N())
	for i := range label {
		label[i] = -1
	}
	count := 0
	var stack []NodeID
	for s := 0; s < g.N(); s++ {
		if label[s] != -1 {
			continue
		}
		stack = append(stack[:0], NodeID(s))
		label[s] = count
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if label[u] == -1 {
					label[u] = count
					stack = append(stack, u)
				}
			}
		}
		count++
	}
	return label, count
}

// Degrees returns the degree slice indexed by node.
func (g *Graph) Degrees() []int {
	return g.DegreesInto(make([]int, g.N()))
}
