// Package coloring implements Linial's colour-reduction algorithm ([42],
// with the CONGEST variant of Kuhn [38]) as used by Section 5 of the paper:
// an O(Δ⁴)-colouring of the square graph G², computed in O(log* n) rounds,
// so that any two nodes within distance 2 receive distinct colours. The
// colours then serve as the (small) hash-function inputs of the
// stage-compressed derandomized Luby algorithm, shrinking per-phase seeds
// from O(log n) to O(log Δ) bits.
//
// One Linial round: identify each current colour c with a polynomial p_c of
// degree <= d over F_q (its base-q digits), where q is a prime exceeding
// Δ·d. Distinct polynomials agree on at most d points, so every node has
// some evaluation point x where it differs from all its (<= Δ) neighbours;
// the node picks the smallest such x and adopts the new colour (x, p_c(x))
// out of q². Iterating reaches the fixpoint q² = O(Δ²) colours for the
// coloured graph — O(Δ⁴) when that graph is G² — in O(log* C) rounds.
//
// G² itself is never built. A node's choice depends only on the set of
// colours in its G²-neighbourhood N²(v), and a two-hop walk over g's CSR
// (graph.BallUnsortedInto) yields exactly that set, so each round reads
// N²(v) from a walk, and Δ(G²) and the final distance-2 check come from the
// same walk.
package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/intmath"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// Result is a proper colouring with its round count.
type Result struct {
	Colors    []int // colour per node, in [0, NumColors)
	NumColors int
	Rounds    int // Linial iterations (each O(1) charged MPC rounds)
}

// LinialG2 colours G² (a distance-2 proper colouring of g) with O(Δ⁴)
// colours — the colouring χ of Section 5 — in O(log* n) iterations,
// starting from the trivial n-colouring by node id. Every pass walks each
// node's 2-ball in g instead of materialising G², and shards over vertex
// ranges on up to `workers` host workers; the result is bit-identical at
// any worker count.
func LinialG2(g *graph.Graph, workers int, model *simcost.Model) *Result {
	model.ChargeRounds(1, "coloring.square") // neighbours exchange lists
	n := g.N()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v
	}
	if n == 0 {
		return &Result{Colors: colors}
	}
	balls := scratch.NewPerWorker(func() *graph.BallScratch { return new(graph.BallScratch) })
	maxDeg := parallel.MaxInt(workers, n, func(lo, hi int) int {
		bs := balls.Get()
		max := 0
		for v := lo; v < hi; v++ {
			if d := len(g.BallUnsortedInto(bs, graph.NodeID(v), 2)) - 1; d > max {
				max = d
			}
		}
		balls.Put(bs)
		return max
	})
	numColors := n
	next := make([]int, n)
	var digits []uint64
	rounds := 0
	for {
		q, d := linialParams(numColors, maxDeg)
		if int(q*q) >= numColors {
			break // fixpoint reached
		}
		digits = colourDigits(graph.Grow(digits, numColors*(d+1)), numColors, q, d)
		if v := linialRound(g, colors, next, digits, q, d, workers, balls); v >= 0 {
			panic(fmt.Sprintf("coloring: input colouring not proper at node %d", v))
		}
		colors, next = next, colors
		numColors = int(q * q)
		rounds++
		model.ChargeRounds(1, "coloring.linial")
		if rounds > 64 {
			panic("coloring: Linial failed to converge")
		}
	}
	// Isolated nodes have no colouring constraints: collapse them to a
	// single colour (pure local computation).
	for v := 0; v < n; v++ {
		if g.Degree(graph.NodeID(v)) == 0 {
			colors[v] = 0
		}
	}
	// Compact the colour space to the colours actually used (a relabeling
	// every node can do locally after one Lemma 4 sort).
	numColors = compact(colors, numColors)
	model.ChargeSort("coloring.compact")
	if err := VerifyDistance2(g, colors, workers); err != nil {
		panic(fmt.Sprintf("coloring: %v", err))
	}
	return &Result{Colors: colors, NumColors: numColors, Rounds: rounds}
}

// linialParams returns the prime field size q and polynomial degree d for
// one reduction from numColors colours at maximum degree maxDeg.
func linialParams(numColors, maxDeg int) (uint64, int) {
	if maxDeg < 1 {
		maxDeg = 1
	}
	// Find the smallest prime q with q > maxDeg*d(q) where d(q) =
	// ceil(log_q numColors); try increasing q until consistent.
	q := intmath.NextPrime(uint64(maxDeg + 2))
	for {
		d := degreeFor(numColors, q)
		if q > uint64(maxDeg*d) {
			return q, d
		}
		q = intmath.NextPrime(q + 1)
	}
}

// degreeFor returns the smallest d with q^(d+1) >= numColors.
func degreeFor(numColors int, q uint64) int {
	d := 0
	pow := q
	for pow < uint64(numColors) {
		pow *= q
		d++
		if d > 64 {
			panic("coloring: degree overflow")
		}
	}
	return d
}

// colourDigits fills dst[c*(d+1)+t] with the t-th base-q digit of every
// colour c < numColors: the coefficients of the polynomial p_c.
func colourDigits(dst []uint64, numColors int, q uint64, d int) []uint64 {
	for c := 0; c < numColors; c++ {
		cc := uint64(c)
		for t := 0; t <= d; t++ {
			dst[c*(d+1)+t] = cc % q
			cc /= q
		}
	}
	return dst
}

// linialRound performs one colour reduction on G², writing every node's new
// colour to next. All nodes decide from the old colours only, so the round
// is synchronous and shards over vertex ranges: a shard writes only its own
// next[v]. It returns the lowest node that shares its colour with a
// G²-neighbour (the input colouring is then not proper), or -1.
func linialRound(g *graph.Graph, colors, next []int, digits []uint64, q uint64, d, workers int, balls *scratch.PerWorker[*graph.BallScratch]) int {
	r := intmath.NewReducer(q)
	w := d + 1
	eval := func(c int, x uint64) uint64 {
		p := digits[c*w : c*w+w]
		acc := p[d]
		for t := d - 1; t >= 0; t-- {
			acc = r.AddMod(r.MulMod(acc, x), p[t])
		}
		return acc
	}
	return parallel.MapReduce(workers, g.N(), -1, func(lo, hi int) int {
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
				// Polynomials of distinct colours agree on at most d points
				// and q > Δ(G²)·d, so only a G²-neighbour sharing v's colour
				// can rule out every x.
				return v
			}
			next[v] = int(x*q + val)
		}
		return -1
	}, firstFailure)
}

// firstFailure folds per-shard failure reports (a node id, or -1) in shard
// order, keeping the first: the lowest failing node.
func firstFailure(acc, part int) int {
	if acc >= 0 {
		return acc
	}
	return part
}

// compact relabels colours in place to a dense range [0, k) in order of
// first appearance, through a dense remap over the numColors colour ids,
// and returns k.
func compact(colors []int, numColors int) int {
	remap := make([]int32, numColors)
	for i := range remap {
		remap[i] = -1
	}
	k := int32(0)
	for v, c := range colors {
		if remap[c] < 0 {
			remap[c] = k
			k++
		}
		colors[v] = int(remap[c])
	}
	return int(k)
}

// VerifyDistance2 returns an error unless colors is a distance-2 proper
// colouring of g (proper on G²). It walks every node's 2-ball, sharded over
// up to `workers` host workers, and reports the lowest failing node v with
// the lowest node u within distance 2 of it sharing v's colour, so the
// error is the same at any worker count.
func VerifyDistance2(g *graph.Graph, colors []int, workers int) error {
	balls := scratch.NewPerWorker(func() *graph.BallScratch { return new(graph.BallScratch) })
	v := parallel.MapReduce(workers, g.N(), -1, func(lo, hi int) int {
		bs := balls.Get()
		defer balls.Put(bs)
		for v := lo; v < hi; v++ {
			for _, u := range g.BallUnsortedInto(bs, graph.NodeID(v), 2)[1:] {
				if colors[u] == colors[v] {
					return v
				}
			}
		}
		return -1
	}, firstFailure)
	if v < 0 {
		return nil
	}
	u := -1
	for _, w := range g.Ball(graph.NodeID(v), 2) {
		if int(w) != v && colors[w] == colors[v] {
			u = int(w)
			break
		}
	}
	return fmt.Errorf("nodes %d and %d within distance 2 share colour %d", v, u, colors[v])
}
