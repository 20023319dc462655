package graph

import (
	"slices"

	"repro/internal/parallel"
)

// CSR is a reusable destination buffer for the Into variants of the graph
// rebuild operations. Round loops keep two of them and ping-pong (see
// internal/scratch.BufPair) so each rebuild reads the previous round's graph
// while overwriting the buffer of the round before it, with zero
// steady-state allocation. The zero value is ready to use.
//
// Two builds fill it. The node-mask filters (WithoutNodesInto,
// InducedNodesInto) copy the surviving slots of the source CSR, so they
// never sort. The edge-list build (FromEdgesInto) uses the buffer's edge
// scratch and per-node write cursors, and sorts the edge list only when it
// is not already in (U, V) order.
//
// The *Graph returned by an Into call aliases the buffer's storage and is
// valid only until the next Into call on the same buffer; callers that need
// a longer-lived snapshot use the allocating wrappers (WithoutNodes,
// FromEdges), which are Into with a fresh buffer.
type CSR struct {
	offsets []int32
	adj     []NodeID
	edges   []Edge  // canonicalised edge scratch for FromEdgesInto
	cursor  []int32 // per-node write cursor for FromEdgesInto
	g       Graph
}

// detach returns the buffer's graph as a standalone value, so the one-shot
// allocating wrappers hand out graphs that pin only the offsets/adj arrays
// they reference — not the buffer struct with its edge and cursor scratch.
func (c *CSR) detach() *Graph {
	g := c.g
	return &g
}

// Grow returns buf with length n, reusing the backing array when capacity
// allows. Contents are unspecified — callers must overwrite the full range.
// It is the sizing helper behind every Into-style destination buffer in
// this repository (the CSR passes here, core.EdgeMinScratch, ...); it lives
// in this package because graph sits at the bottom of the import graph.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// WithoutNodes returns a graph on the same id space in which every node with
// remove[v] == true has been isolated (all incident edges dropped). Node ids
// are preserved, which keeps them stable across the iterations of the
// Luby-style loops in internal/matching and internal/mis. It runs at the
// pool's automatic worker count (one per CPU); use WithoutNodesW to pin one.
func (g *Graph) WithoutNodes(remove []bool) *Graph { return g.WithoutNodesW(remove, 0) }

// WithoutNodesW is WithoutNodes with the rebuild sharded over vertex ranges
// on up to `workers` host workers. The result is identical at any worker
// count.
func (g *Graph) WithoutNodesW(remove []bool, workers int) *Graph {
	dst := new(CSR)
	g.WithoutNodesInto(remove, workers, dst)
	return dst.detach()
}

// WithoutNodesInto is WithoutNodesW writing into dst instead of allocating.
// The returned graph aliases dst's storage (see CSR). The result is
// byte-identical to WithoutNodesW at any worker count and for any prior
// contents of dst.
func (g *Graph) WithoutNodesInto(remove []bool, workers int, dst *CSR) *Graph {
	if len(remove) != g.N() {
		panic("graph: WithoutNodes mask length mismatch")
	}
	return g.maskFilterInto(dst, workers, remove, false)
}

// maskFilterInto builds into dst the subgraph keeping exactly the edges
// {u,v} with mask[u] == want and mask[v] == want. It filters the CSR arrays
// directly, in two O(n+m) passes with no sort and no per-edge call. Pass 1
// counts each node's surviving neighbours, a serial prefix sum lays out
// the new offsets, and pass 2 copies them into place. The rows of dropped
// nodes are skipped, and kept rows are counted and compacted branch-free.
// Both passes shard over vertex ranges and each node writes only its own
// range, so the result is deterministic at any worker count, and rows stay
// sorted because the source rows are. Each pass reads n offsets and up to
// 2m neighbour words, its work for internal/parallel. Every destination
// slot is written, so a dirty dst (even one from a previous, larger graph)
// cannot leak into the result.
func (g *Graph) maskFilterInto(dst *CSR, workers int, mask []bool, want bool) *Graph {
	if g == &dst.g {
		panic("graph: Into destination buffer backs the source graph")
	}
	n := g.N()
	work := n + 2*g.M()
	offsets := Grow(dst.offsets, n+1)
	offsets[0] = 0
	parallel.For(workers, n, work, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			cnt := int32(0)
			if mask[v] == want {
				for _, u := range g.Neighbors(NodeID(v)) {
					cnt += b2i(mask[u] == want)
				}
			}
			offsets[v+1] = cnt
		}
	})
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := Grow(dst.adj, int(offsets[n]))
	parallel.For(workers, n, work, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			// Every slot is written and the cursor advances past survivors
			// only. The loop stops once the row's survivors are all placed,
			// so no write leaves the row's own range.
			row := g.Neighbors(NodeID(v))
			for i, w, end := 0, offsets[v], offsets[v+1]; w < end; i++ {
				u := row[i]
				adj[w] = u
				w += b2i(mask[u] == want)
			}
		}
	})
	dst.offsets, dst.adj = offsets, adj
	dst.g = Graph{offsets: offsets, adj: adj, m: int(offsets[n]) / 2}
	return &dst.g
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// InducedNodesInto writes into dst the subgraph induced on the nodes with
// keep[v]==true, preserving node ids (nodes outside the set become
// isolated), with the rebuild sharded over vertex ranges on up to `workers`
// host workers. The returned graph aliases dst's storage (see CSR). The
// result is identical at any worker count and for any prior contents of
// dst.
func (g *Graph) InducedNodesInto(keep []bool, workers int, dst *CSR) *Graph {
	if len(keep) != g.N() {
		panic("graph: InducedNodes mask length mismatch")
	}
	return g.maskFilterInto(dst, workers, keep, true)
}

// LineGraph returns the line graph L(G) together with the canonical edge
// list of g: node i of L(G) corresponds to edges[i], and two L(G)-nodes are
// adjacent iff the corresponding g-edges share an endpoint. A maximal
// matching of g is exactly an MIS of L(G) (Section 5 of the paper uses this
// reduction for small Δ).
//
// L(G) is read straight off g's CSR. EdgeIDsInto labels both adjacency
// slots of each edge with its canonical id, and the ids at every node come
// out ascending in slot order. The row of edge {u, v} is then a two-way
// merge of u's and v's id runs minus the edge itself (the only id the two
// runs share), so every row is sorted and duplicate-free with no index map
// and no sort.
func (g *Graph) LineGraph() (*Graph, []Edge) {
	m := g.m
	edges := g.Edges()
	eid := g.EdgeIDsInto(make([]int32, len(g.adj)), make([]int32, g.N()))
	offsets := make([]int32, m+1)
	for i, e := range edges {
		offsets[i+1] = offsets[i] + int32(g.Degree(e.U)+g.Degree(e.V)-2)
	}
	adj := make([]NodeID, offsets[m])
	for i, e := range edges {
		a := eid[g.offsets[e.U]:g.offsets[e.U+1]]
		b := eid[g.offsets[e.V]:g.offsets[e.V+1]]
		w := offsets[i]
		for len(a) > 0 || len(b) > 0 {
			var next int32
			if len(b) == 0 || (len(a) > 0 && a[0] < b[0]) {
				next, a = a[0], a[1:]
			} else {
				next, b = b[0], b[1:]
			}
			if next != int32(i) {
				adj[w] = next
				w++
			}
		}
	}
	return &Graph{offsets: offsets, adj: adj, m: int(offsets[m]) / 2}, edges
}

// EdgeIDsInto labels every adjacency slot of g with the id of its edge,
// where ids number the edges in canonical (U, V) order, the order of
// Edges. dst must have length 2M and cursor length N; cursor is working
// state whose prior contents are ignored. dst is returned.
//
// One pass walks the edges in canonical order through one write cursor per
// node. cursor[v] is v's next unlabeled slot: when the pass reaches u,
// every edge to a lower neighbour has been labeled, so cursor[u] sits on
// the first slot of u's higher neighbours. Both slots of edge i carry i,
// and the ids at every node come out ascending in slot order.
func (g *Graph) EdgeIDsInto(dst, cursor []int32) []int32 {
	n := g.N()
	if len(dst) != len(g.adj) || len(cursor) != n {
		panic("graph: EdgeIDsInto length mismatch")
	}
	copy(cursor, g.offsets)
	id := int32(0)
	for u := 0; u < n; u++ {
		for s := cursor[u]; s < g.offsets[u+1]; s++ {
			v := g.adj[s]
			dst[s] = id
			dst[cursor[v]] = id
			cursor[v]++
			id++
		}
	}
	return dst
}

// BallScratch is the reusable working state of BallInto and
// BallUnsortedInto: a visited table (touched entries are restored after
// each call), the ball buffer and where each distance level of the last
// walk ends. The Section 5 preprocessing walks one ball per node, so
// callers scanning many centres keep one scratch per worker instead of
// allocating per centre. The zero value is ready to use.
type BallScratch struct {
	dist []int32 // -1 = unvisited; sized lazily to the graph
	ball []NodeID
	ends []int32 // ends[d] = |Ball(v, d)| of the last walk, up to its last nonempty level
}

// Within returns |Ball(v, d)|, the number of nodes within distance d of the
// centre v of the last walk on s, for 0 <= d <= r, that walk's radius. One
// walk to radius r thus also sizes every smaller ball around v: after
// BallUnsortedInto, ball[:Within(d)] is exactly Ball(v, d).
func (s *BallScratch) Within(d int) int {
	if d < len(s.ends) {
		return int(s.ends[d])
	}
	return len(s.ball)
}

// Ball returns the set of nodes within distance r of v (including v),
// sorted. For r = 2 this is the "2-hop neighbourhood" whose size the
// algorithms must bound by the machine space S.
func (g *Graph) Ball(v NodeID, r int) []NodeID {
	return g.BallInto(new(BallScratch), v, r)
}

// BallInto is Ball drawing all working state from s. The returned slice
// aliases s.ball and is valid until the next call with the same scratch.
func (g *Graph) BallInto(s *BallScratch, v NodeID, r int) []NodeID {
	ball := g.BallUnsortedInto(s, v, r)
	slices.Sort(ball)
	return ball
}

// BallUnsortedInto is BallInto without the sort: the same node set in
// breadth-first order, so ball[0] is v and ball[1:] the nodes at distance
// 1..r, level by level (s.Within gives where each level ends). Callers
// that need only the set (its size, a sum or a scan over it) skip the
// O(b log b) sort. The returned slice aliases s.ball and is valid until
// the next call with the same scratch.
func (g *Graph) BallUnsortedInto(s *BallScratch, v NodeID, r int) []NodeID {
	n := g.N()
	if len(s.dist) < n {
		s.dist = make([]int32, n)
		for i := range s.dist {
			s.dist[i] = -1
		}
	}
	// BFS over the ball buffer itself: [head, tail) is the current
	// frontier, appends build the next one.
	ball := append(s.ball[:0], v)
	ends := append(s.ends[:0], 1)
	s.dist[v] = 0
	head := 0
	for d := 0; d < r; d++ {
		tail := len(ball)
		if head == tail {
			break // every later level is empty: Within reads len(ball)
		}
		for ; head < tail; head++ {
			for _, w := range g.Neighbors(ball[head]) {
				if s.dist[w] < 0 {
					s.dist[w] = int32(d + 1)
					ball = append(ball, w)
				}
			}
		}
		ends = append(ends, int32(len(ball)))
	}
	for _, u := range ball {
		s.dist[u] = -1
	}
	s.ball, s.ends = ball, ends
	return ball
}
