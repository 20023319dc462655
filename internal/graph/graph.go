// Package graph provides the in-memory graph substrate shared by every
// algorithm in this repository: compressed-sparse-row (CSR) undirected
// graphs, builders, and the structural operations the paper needs (induced
// subgraphs, node removal, line graphs for maximal matching via MIS, and
// r-hop balls for Section 5, walked once per node to size both the
// collected neighbourhoods and the square graph G², whose colouring reads
// 2-paths straight off the CSR rows).
//
// Graphs are immutable once built. Node ids are dense int32 values in
// [0, N); algorithms that remove nodes produce a new Graph with the same id
// space in which removed nodes are isolated, so ids remain stable across the
// iterations of Luby-style loops.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node; ids are dense in [0, N).
type NodeID = int32

// Edge is an undirected edge with U < V canonically.
type Edge struct {
	U, V NodeID
}

// Canon returns e with endpoints swapped if necessary so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Key returns a canonical uint64 key for the edge in a graph with n nodes,
// suitable as a hash-function input: key = min*n + max < n².
func (e Edge) Key(n int) uint64 {
	c := e.Canon()
	return uint64(c.U)*uint64(n) + uint64(c.V)
}

// Graph is an immutable undirected graph in CSR form. The zero value is the
// empty graph with no nodes.
type Graph struct {
	offsets []int32  // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []NodeID // concatenated sorted neighbour lists (both directions)
	m       int      // number of undirected edges
}

// N returns the number of nodes.
func (g *Graph) N() int {
	if g == nil || len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Fingerprint returns a 64-bit content hash of the graph: FNV-1a over the
// node count and the CSR arrays, which together determine the graph exactly
// (builders canonicalise edge lists — sorted adjacency, no duplicates or
// self loops — so structurally equal graphs hash equal regardless of input
// edge order). Two graphs with equal fingerprints are almost certainly
// identical; callers that must rule out the 2^-64 collision confirm with
// Same. Cost is one O(n+m) pass; a nil graph hashes like the empty graph.
func (g *Graph) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint32) {
		h = (h ^ uint64(x&0xff)) * prime64
		h = (h ^ uint64((x>>8)&0xff)) * prime64
		h = (h ^ uint64((x>>16)&0xff)) * prime64
		h = (h ^ uint64(x>>24)) * prime64
	}
	mix(uint32(g.N()))
	if g.N() == 0 {
		// All empty-graph representations (nil, zero value, built) hash
		// alike, mirroring Same.
		return h
	}
	for _, o := range g.offsets {
		mix(uint32(o))
	}
	for _, v := range g.adj {
		mix(uint32(v))
	}
	return h
}

// Same reports whether g and h are structurally identical graphs (same node
// count, same canonical adjacency). It is the exact companion of
// Fingerprint: Same(h) implies equal fingerprints, and fingerprint-equal
// graphs are verified with Same where collisions matter.
func (g *Graph) Same(h *Graph) bool {
	gm, hm := 0, 0
	if g != nil {
		gm = g.m
	}
	if h != nil {
		hm = h.m
	}
	if g.N() != h.N() || gm != hm {
		return false
	}
	if g.N() == 0 {
		// Every zero-node graph (nil, the zero value, FromEdges(0, ...)) is
		// the same empty graph regardless of representation.
		return true
	}
	return slices.Equal(g.offsets, h.offsets) && slices.Equal(g.adj, h.adj)
}

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbour list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u,v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// MaxDegree returns the maximum degree Δ (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// Edges returns the canonical edge list, sorted by (U, V). The slice is
// freshly allocated on every call; round loops use EdgesAppend with a
// recycled buffer instead.
func (g *Graph) Edges() []Edge {
	return g.EdgesAppend(make([]Edge, 0, g.m))
}

// EdgesAppend appends the canonical edge list, sorted by (U, V), to dst[:0]
// and returns it (the Into-style variant of Edges for scratch reuse).
func (g *Graph) EdgesAppend(dst []Edge) []Edge {
	dst = dst[:0]
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				dst = append(dst, Edge{NodeID(u), v})
			}
		}
	}
	return dst
}

// DegreesInto fills dst (which must have length N) with the degree of each
// node and returns it.
func (g *Graph) DegreesInto(dst []int) []int {
	if len(dst) != g.N() {
		panic("graph: DegreesInto length mismatch")
	}
	for v := range dst {
		dst[v] = g.Degree(NodeID(v))
	}
	return dst
}

// String returns a short diagnostic description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.N(), g.M(), g.MaxDegree())
}

// Builder accumulates edges and produces a Graph. Duplicate edges and self
// loops are dropped. The zero value is unusable; construct with NewBuilder.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v}. Self loops are ignored.
// It panics on out-of-range endpoints.
func (b *Builder) AddEdge(u, v NodeID) {
	if int(u) >= b.n || int(v) >= b.n || u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, Edge{u, v}.Canon())
}

// Build finalises the graph. The builder may be reused afterwards (its edge
// buffer is retained).
func (b *Builder) Build() *Graph {
	return FromEdges(b.n, b.edges)
}

// FromEdges builds a graph on n nodes from an edge list. Duplicates and self
// loops are removed; the input slice is not modified. The graph is detached
// from the build buffer (see CSR.detach), so holding it pins only the CSR
// arrays it uses, not the build scratch.
func FromEdges(n int, edges []Edge) *Graph {
	dst := new(CSR)
	FromEdgesInto(n, edges, dst)
	return dst.detach()
}

// FromEdgesInto is FromEdges writing into dst instead of allocating. The
// returned graph aliases dst's storage (see CSR); the input slice is not
// modified and must not alias dst's internal scratch. The result is
// byte-identical to FromEdges for any prior contents of dst.
//
// The canonicalised list is sorted by (U, V) only when it is not in that
// order already: edge lists read off a CSR (Edges, EdgesAppend) and their
// order-preserving subsets, such as the sparsify edge chain's E*, skip the
// sort. Every row then comes out sorted by construction (see the
// placement loop), so no row is sorted either.
func FromEdgesInto(n int, edges []Edge, dst *CSR) *Graph {
	canon := Grow(dst.edges, len(edges))[:0]
	sorted := true
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n))
		}
		e = e.Canon()
		if k := len(canon); k > 0 && edgeCmp(canon[k-1], e) > 0 {
			sorted = false
		}
		canon = append(canon, e)
	}
	dst.edges = canon
	if !sorted {
		// slices.SortFunc rather than sort.Slice: the generic sort
		// allocates nothing, where the reflective one costs two heap
		// objects per call.
		slices.SortFunc(canon, edgeCmp)
	}
	// Deduplicate in place.
	uniq := canon[:0]
	for i, e := range canon {
		if i == 0 || e != canon[i-1] {
			uniq = append(uniq, e)
		}
	}
	deg := Grow(dst.offsets, n+1)
	clear(deg)
	for _, e := range uniq {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	offsets := deg
	adj := Grow(dst.adj, int(offsets[n]))
	cursor := Grow(dst.cursor, n)
	clear(cursor)
	// Edges arrive in (U, V) order with U < V, so node x first receives its
	// lower neighbours (as the V of edges whose U ascends) and then its
	// higher ones (as the U of edges whose V ascends): every row is written
	// in ascending order.
	for _, e := range uniq {
		adj[offsets[e.U]+cursor[e.U]] = e.V
		cursor[e.U]++
		adj[offsets[e.V]+cursor[e.V]] = e.U
		cursor[e.V]++
	}
	dst.offsets, dst.adj, dst.cursor = offsets, adj, cursor
	dst.g = Graph{offsets: offsets, adj: adj, m: len(uniq)}
	return &dst.g
}

// edgeCmp orders canonical edges by (U, V).
func edgeCmp(a, b Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

// Empty returns the graph with n nodes and no edges.
func Empty(n int) *Graph {
	return FromEdges(n, nil)
}
