package graph

import (
	"slices"
	"testing"
)

// Native fuzz targets. `go test` runs the seed corpus; `go test -fuzz=...`
// explores further. They assert the structural invariants that every
// algorithm in this repository depends on.

func FuzzBuilderInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0})
	f.Add([]byte{5, 5, 5, 5})
	f.Add([]byte{})
	f.Add([]byte{255, 254, 253, 252, 1, 1})
	// FromEdgesInto skips its sort when the edges arrive in (U, V) order:
	// sorted, reversed and duplicated lists reach both branches.
	f.Add([]byte{0, 1, 0, 2, 1, 2, 1, 5, 3, 4, 7, 9})
	f.Add([]byte{7, 9, 3, 4, 1, 5, 1, 2, 0, 2, 0, 1})
	f.Add([]byte{0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 4, 6})
	f.Add([]byte{1, 0, 2, 0, 2, 1, 5, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 64
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(NodeID(int(raw[i])%n), NodeID(int(raw[i+1])%n))
		}
		g := b.Build()
		// Degree sum identity.
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(NodeID(v))
		}
		if sum != 2*g.M() {
			t.Fatalf("degree sum %d != 2m = %d", sum, 2*g.M())
		}
		// Symmetry and sortedness.
		for v := 0; v < g.N(); v++ {
			nbrs := g.Neighbors(NodeID(v))
			for i, u := range nbrs {
				if u == NodeID(v) {
					t.Fatal("self loop survived")
				}
				if i > 0 && nbrs[i-1] >= u {
					t.Fatal("neighbours unsorted or duplicated")
				}
				if !g.HasEdge(u, NodeID(v)) {
					t.Fatal("asymmetric adjacency")
				}
			}
		}
		// Edge list round trip, in canonical order (no sort) and reversed
		// (sorted): both must rebuild g exactly.
		edges := g.Edges()
		if h := FromEdges(n, edges); !h.Same(g) {
			t.Fatalf("edge-list round trip changed the graph: %v -> %v", g, h)
		}
		slices.Reverse(edges)
		if h := FromEdges(n, edges); !h.Same(g) {
			t.Fatalf("reversed edge-list round trip changed the graph: %v -> %v", g, h)
		}
	})
}

func FuzzLineGraphDegreeIdentity(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 4})
	f.Add([]byte{1, 2, 2, 3, 3, 1, 1, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 24
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(NodeID(int(raw[i])%n), NodeID(int(raw[i+1])%n))
		}
		g := b.Build()
		lg, edges := g.LineGraph()
		if want, _ := lineGraphMapIndexed(g); !lg.Same(want) {
			t.Fatal("LineGraph differs from the map-indexed reference")
		}
		if lg.N() != len(edges) || len(edges) != g.M() {
			t.Fatalf("line graph node count %d != m %d", lg.N(), g.M())
		}
		for i, e := range edges {
			want := g.Degree(e.U) + g.Degree(e.V) - 2
			if got := lg.Degree(NodeID(i)); got != want {
				t.Fatalf("d_L(%v) = %d, want %d", e, got, want)
			}
		}
	})
}

// graphsEqual reports whether two graphs are byte-identical in their CSR
// content: same node count, edge count, and per-node neighbour lists.
func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// dirty fills dst with a larger, denser graph so that any slot the Into
// variants fail to overwrite holds stale garbage from a previous build.
func dirty(dst *CSR, n2 int) {
	var big []Edge
	for u := 0; u < n2; u++ {
		for v := u + 1; v < n2 && v < u+9; v++ {
			big = append(big, Edge{NodeID(u), NodeID(v)})
		}
	}
	FromEdgesInto(n2, big, dst)
}

// FuzzIntoVariantsMatchAllocating checks that every Into-style destination
// variant is byte-identical to its allocating counterpart — including when
// the destination buffer is dirty from a previous, larger graph, which is
// exactly the state the round loops' ping-pong buffers are in.
func FuzzIntoVariantsMatchAllocating(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 9, 17}, uint8(0b1010))
	f.Add([]byte{5, 5, 1, 2}, uint8(0xff))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, maskBits uint8) {
		const n = 48
		b := NewBuilder(n)
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := NodeID(int(raw[i])%n), NodeID(int(raw[i+1])%n)
			b.AddEdge(u, v)
			if u != v {
				edges = append(edges, Edge{u, v})
			}
		}
		g := b.Build()
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = maskBits&(1<<(v%8)) != 0
		}
		for _, workers := range []int{1, 3} {
			dst := new(CSR)

			dirty(dst, n+16)
			if got, want := g.WithoutNodesInto(mask, workers, dst), g.WithoutNodesW(mask, workers); !graphsEqual(got, want) {
				t.Fatalf("WithoutNodesInto(workers=%d) differs on dirty buffer: got %v, want %v", workers, got, want)
			}

			dirty(dst, n+16)
			if got, want := g.InducedNodesInto(mask, workers, dst), g.InducedNodesW(mask, workers); !graphsEqual(got, want) {
				t.Fatalf("InducedNodesInto(workers=%d) differs on dirty buffer: got %v, want %v", workers, got, want)
			}

			dirty(dst, n+16)
			if got, want := FromEdgesInto(n, edges, dst), FromEdges(n, edges); !graphsEqual(got, want) {
				t.Fatalf("FromEdgesInto differs on dirty buffer: got %v, want %v", got, want)
			}

			// Back-to-back reuse of the same buffer must also be clean when
			// the second build is strictly smaller than the first.
			g.WithoutNodesInto(make([]bool, n), workers, dst) // keeps every edge
			if got, want := g.InducedNodesInto(mask, workers, dst), g.InducedNodesW(mask, workers); !graphsEqual(got, want) {
				t.Fatalf("InducedNodesInto(workers=%d) differs on reused buffer", workers)
			}
		}
	})
}

func FuzzBallWithinBounds(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, r uint8) {
		const n = 32
		b := NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(NodeID(int(raw[i])%n), NodeID(int(raw[i+1])%n))
		}
		g := b.Build()
		radius := int(r % 5)
		var bs BallScratch
		for v := 0; v < n; v++ {
			// The unsorted walk holds the same set, centre first.
			walk := g.BallUnsortedInto(&bs, NodeID(v), radius)
			if walk[0] != NodeID(v) {
				t.Fatal("unsorted ball does not start at its centre")
			}
			// The walk's level ends size every smaller ball around v.
			for d := 0; d <= radius; d++ {
				if got, want := bs.Within(d), len(g.Ball(NodeID(v), d)); got != want {
					t.Fatalf("Within(%d) = %d after a radius-%d walk from %d, |Ball| = %d", d, got, radius, v, want)
				}
			}
			sorted := slices.Sorted(slices.Values(walk))
			ball := g.Ball(NodeID(v), radius)
			if !slices.Equal(sorted, ball) {
				t.Fatalf("unsorted ball %v is not the set of Ball %v", walk, ball)
			}
			if len(ball) < 1 || len(ball) > n {
				t.Fatalf("ball size %d out of range", len(ball))
			}
			// v itself is always included and the list is sorted unique.
			seen := false
			for i, u := range ball {
				if u == NodeID(v) {
					seen = true
				}
				if i > 0 && ball[i-1] >= u {
					t.Fatal("ball unsorted")
				}
			}
			if !seen {
				t.Fatal("ball missing centre")
			}
		}
	})
}
