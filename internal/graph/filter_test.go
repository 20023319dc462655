package graph

import "testing"

// pseudoGraph builds a deterministic scrambled graph for property tests.
func pseudoGraph(n, m int, seed uint64) *Graph {
	s := seed
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := NodeID(next() % uint64(n))
		v := NodeID(next() % uint64(n))
		if u != v {
			edges = append(edges, Edge{u, v})
		}
	}
	return FromEdges(n, edges)
}

// referenceFilter is the pre-CSR-rewrite implementation of the node filters:
// collect surviving edges and round-trip through FromEdges.
func referenceFilter(g *Graph, keep func(u, v NodeID) bool) *Graph {
	edges := make([]Edge, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v && keep(NodeID(u), v) {
				edges = append(edges, Edge{NodeID(u), v})
			}
		}
	}
	return FromEdges(g.N(), edges)
}

// TestFilterCSRMatchesReference pins the CSR mask filter behind
// WithoutNodes and InducedNodes (maskFilterInto) against the edge-list
// reference, byte for byte, on a grid of graphs, masks and worker counts.
func TestFilterCSRMatchesReference(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1, 0}, {7, 9}, {64, 256}, {200, 1500}, {333, 40}} {
		g := pseudoGraph(tc.n, tc.m, uint64(tc.n*31+tc.m))
		for maskKind := 0; maskKind < 4; maskKind++ {
			mask := make([]bool, g.N())
			for v := range mask {
				switch maskKind {
				case 0:
					mask[v] = v%3 == 0
				case 1:
					mask[v] = false
				case 2:
					mask[v] = true
				case 3:
					mask[v] = (uint64(v)*0x9e3779b97f4a7c15)>>63 == 1
				}
			}
			wantW := referenceFilter(g, func(u, v NodeID) bool { return !mask[u] && !mask[v] })
			wantI := referenceFilter(g, func(u, v NodeID) bool { return mask[u] && mask[v] })
			for _, workers := range []int{1, 2, 8} {
				gotW := g.WithoutNodesW(mask, workers)
				if !gotW.Same(wantW) {
					t.Fatalf("n=%d m=%d mask=%d workers=%d: WithoutNodesW mismatch", tc.n, tc.m, maskKind, workers)
				}
				gotI := g.InducedNodesW(mask, workers)
				if !gotI.Same(wantI) {
					t.Fatalf("n=%d m=%d mask=%d workers=%d: InducedNodesW mismatch", tc.n, tc.m, maskKind, workers)
				}
			}
		}
	}
}

// TestFilterCSRKeepsNeighborListsSorted guards the sortedness invariant that
// HasEdge's binary search relies on.
func TestFilterCSRKeepsNeighborListsSorted(t *testing.T) {
	g := pseudoGraph(100, 600, 5)
	mask := make([]bool, g.N())
	for v := range mask {
		mask[v] = v%4 == 1
	}
	h := g.WithoutNodesW(mask, 4)
	for v := 0; v < h.N(); v++ {
		nbrs := h.Neighbors(NodeID(v))
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("node %d: neighbours not strictly sorted: %v", v, nbrs)
			}
		}
	}
}
