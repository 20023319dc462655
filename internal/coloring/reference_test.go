package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/intmath"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// This file keeps the materialised-G² colouring that LinialG2 replaced, as
// the reference TestLinialG2MatchesSquareReference pins it to: square
// builds G² through a dedup map and a sorting Builder, and linialReference
// runs map-backed Linial rounds over its sorted adjacency. It also keeps
// the walk-and-evaluate round that the point tables replaced,
// linialRoundWalk, as the reference TestLinialRoundMatchesWalkReference and
// FuzzLinialRoundMatchesWalkReference pin linialRound to.

// square returns G², the graph on the same nodes where u ~ v iff their
// distance in g is 1 or 2.
func square(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	seen := make(map[int64]struct{})
	addOnce := func(u, v graph.NodeID) {
		if u == v {
			return
		}
		a, c := u, v
		if a > c {
			a, c = c, a
		}
		k := int64(a)<<32 | int64(c)
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		b.AddEdge(u, v)
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			addOnce(graph.NodeID(u), v)
			for _, w := range g.Neighbors(v) {
				addOnce(graph.NodeID(u), w)
			}
		}
	}
	return b.Build()
}

// linialG2Reference is LinialG2 as it was before the implicit walk: colour
// the materialised square, charging the same model rounds.
func linialG2Reference(g *graph.Graph, model *simcost.Model) *Result {
	sq := square(g)
	model.ChargeRounds(1, "coloring.square")
	return linialReference(sq, model)
}

// linialReference colours the given graph properly with O(Δ²) colours in
// O(log* n) iterations, starting from the trivial n-colouring by node id.
func linialReference(g *graph.Graph, model *simcost.Model) *Result {
	n := g.N()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v
	}
	numColors := n
	if numColors == 0 {
		return &Result{Colors: colors, NumColors: 0}
	}
	maxDeg := g.MaxDegree()
	rounds := 0
	for {
		q, d := linialParams(numColors, maxDeg)
		next := int(q * q)
		if next >= numColors {
			break
		}
		colors = linialRoundReference(g, colors, q, d)
		numColors = next
		rounds++
		model.ChargeRounds(1, "coloring.linial")
		if rounds > 64 {
			panic("coloring: Linial failed to converge")
		}
	}
	for v := 0; v < n; v++ {
		if g.Degree(graph.NodeID(v)) == 0 {
			colors[v] = 0
		}
	}
	colors, numColors = compactReference(colors)
	model.ChargeSort("coloring.compact")
	return &Result{Colors: colors, NumColors: numColors, Rounds: rounds}
}

// linialRoundReference performs one colour reduction with the colour
// polynomials memoised in a map.
func linialRoundReference(g *graph.Graph, colors []int, q uint64, d int) []int {
	n := g.N()
	next := make([]int, n)
	polys := map[int][]uint64{}
	digitsOf := func(c int) []uint64 {
		if p, ok := polys[c]; ok {
			return p
		}
		p := make([]uint64, d+1)
		cc := uint64(c)
		for t := 0; t <= d; t++ {
			p[t] = cc % q
			cc /= q
		}
		polys[c] = p
		return p
	}
	eval := func(p []uint64, x uint64) uint64 {
		acc := p[len(p)-1] % q
		for t := len(p) - 2; t >= 0; t-- {
			acc = (intmath.MulMod(acc, x, q) + p[t]) % q
		}
		return acc
	}
	for v := 0; v < n; v++ {
		pv := digitsOf(colors[v])
		nbrs := g.Neighbors(graph.NodeID(v))
		chosen := int64(-1)
		for x := uint64(0); x < q; x++ {
			val := eval(pv, x)
			ok := true
			for _, u := range nbrs {
				if colors[u] == colors[v] {
					panic("coloring: input colouring not proper")
				}
				if eval(digitsOf(colors[u]), x) == val {
					ok = false
					break
				}
			}
			if ok {
				chosen = int64(x*q + val)
				break
			}
		}
		if chosen < 0 {
			panic("coloring: no evaluation point found")
		}
		next[v] = int(chosen)
	}
	return next
}

// compactReference relabels colours to a dense range [0, k) through a map.
func compactReference(colors []int) ([]int, int) {
	seen := map[int]int{}
	out := make([]int, len(colors))
	for v, c := range colors {
		id, ok := seen[c]
		if !ok {
			id = len(seen)
			seen[c] = id
		}
		out[v] = id
	}
	return out, len(seen)
}

// VerifyProper returns an error unless colors is a proper colouring of g,
// the property linialReference guarantees for the graph it colours.
func VerifyProper(g *graph.Graph, colors []int) error {
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if colors[v] == colors[u] {
				return fmt.Errorf("nodes %d and %d share colour %d", v, u, colors[v])
			}
		}
	}
	return nil
}

// linialRoundWalk is linialRound as it was before the point tables: each
// node walks its 2-ball (graph.BallUnsortedInto, which deduplicates N²(v)
// through a visited table) and, for each candidate point x in turn,
// evaluates its own polynomial and that of every node of the ball. It
// writes next and returns the lowest failing node, or -1, as linialRound
// does. Its shards run concurrently at two or more workers at every size
// (work parallel.SerialWork).
func linialRoundWalk(g *graph.Graph, colors, next []int, digits []uint32, q uint64, d, workers int) int {
	balls := scratch.NewPerWorker(func() *graph.BallScratch { return new(graph.BallScratch) })
	w := d + 1
	eval := func(c int, x uint64) uint64 {
		p := digits[c*w : c*w+w]
		acc := uint64(p[d])
		for t := d - 1; t >= 0; t-- {
			acc = intmath.AddMod(intmath.MulMod(acc, x, q), uint64(p[t]), q)
		}
		return acc
	}
	return parallel.MapReduce(workers, g.N(), parallel.SerialWork, -1, func(lo, hi int) int {
		bs := balls.Get()
		defer balls.Put(bs)
		for v := lo; v < hi; v++ {
			nbrs := g.BallUnsortedInto(bs, graph.NodeID(v), 2)[1:]
			cv := colors[v]
			x, val := uint64(0), uint64(0)
		search:
			for ; x < q; x++ {
				val = eval(cv, x)
				for _, u := range nbrs {
					if eval(colors[u], x) == val {
						continue search
					}
				}
				break
			}
			if x == q {
				return v
			}
			next[v] = int(x*q + val)
		}
		return -1
	}, firstFailure)
}
