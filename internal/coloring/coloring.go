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
// G² itself is never built, and no ball is walked. A node's choice depends
// only on the set of colours in its G²-neighbourhood N²(v), and the 2-paths
// v–u and v–u–w (w ≠ v) of g's CSR end at exactly the nodes of N²(v); a node
// reached twice is compared twice, which changes no outcome. Each round
// tabulates every node's polynomial at the first tablePoints points, then
// scans v's 2-paths against the table and evaluates directly only past it.
// The final distance-2 check scans the same 2-paths. Δ(G²) comes from the
// caller, which reads it off a walk it makes anyway (internal/lowdeg's
// r-ball walk).
package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/intmath"
	"repro/internal/parallel"
	"repro/internal/simcost"
)

// tablePoints is how many evaluation points a Linial round tabulates for
// every node before it scans the 2-paths; the few nodes whose point lies
// past the table evaluate directly. It was picked by measurement: on grid
// and 3-regular graphs with n = 4096 and on their line graphs, four points
// cover 98.4–100% of a round's nodes, and two, three or four points time
// the same within noise, while six are slower (the fill costs more than
// the direct evaluations it saves).
const tablePoints = 4

// The work factors of the Section 5 colouring scans for internal/parallel:
// what one step costs in its serial-cutoff unit, about one CSR word read
// (0.7–2.4 ns in graph's mask filter on the same graphs). Measured at
// Parallelism 1 on grid and random regular graphs with n = 4096 and on
// their line graphs; each factor is the slowest graph's, the regular one,
// whose 2-paths miss the cache.
const (
	tabulateStepWork = 5 // one Horner step of a tabulated point: 4.1–5.1 ns
	roundStepWork    = 8 // one 2-path of a Linial round's scan: 1.5–7.6 ns
	verifyStepWork   = 5 // one 2-path of the distance-2 check: 1.4–5.3 ns
)

// Result is a proper colouring with its round count.
type Result struct {
	Colors    []int // colour per node, in [0, NumColors)
	NumColors int
	Rounds    int // Linial iterations (each O(1) charged MPC rounds)
}

// LinialG2 colours G² (a distance-2 proper colouring of g) with O(Δ⁴)
// colours — the colouring χ of Section 5 — in O(log* n) iterations,
// starting from the trivial n-colouring by node id. maxDeg2 must be Δ(G²)
// of g, the largest |Ball(v, 2)| − 1 (0 when g has no nodes): the caller
// reads it off a walk of its own, and a smaller value can leave a round
// without a point for some node, which panics. Every pass scans 2-paths of
// g's CSR instead of materialising G², and shards over vertex ranges on up
// to `workers` host workers; the result is bit-identical at any worker
// count. done (nil: never) is the solve's cancellation poll: LinialG2 polls
// it before it starts and after each round, and its 2-path scans poll it
// within every shard (ShardPoll); it returns nil once done reports true.
func LinialG2(g *graph.Graph, maxDeg2, workers int, done func() bool, model *simcost.Model) *Result {
	if stopped(done) {
		return nil
	}
	model.ChargeRounds(1, "coloring.square") // neighbours exchange lists
	n := g.N()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v
	}
	if n == 0 {
		return &Result{Colors: colors}
	}
	numColors := n
	paths := twoPaths(g)
	next := make([]int, n)
	var digits []uint32
	var table []uint32
	rounds := 0
	for {
		q, d := linialParams(numColors, maxDeg2)
		if int(q*q) >= numColors {
			break // fixpoint reached
		}
		digits = colourDigits(graph.Grow(digits, numColors*(d+1)), numColors, q, d)
		table = graph.Grow(table, tablePoints*n)
		v := linialRound(g, colors, next, digits, table, q, d, paths, workers, done)
		if stopped(done) {
			return nil // the round may have skipped shards
		}
		if v >= 0 {
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
	err := verifyDistance2(g, colors, paths, workers, done)
	if stopped(done) {
		return nil
	}
	if err != nil {
		panic(fmt.Sprintf("coloring: %v", err))
	}
	return &Result{Colors: colors, NumColors: numColors, Rounds: rounds}
}

// twoPaths returns Σ deg(v)², the number of 2-paths v–u–w (w = v
// included) a scan of g's CSR walks from every node, saturating at
// math.MaxInt. It sizes the scans' work for internal/parallel.
func twoPaths(g *graph.Graph) int {
	sum := 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(graph.NodeID(v))
		sum = intmath.SatAdd(sum, intmath.SatMul(d, d))
	}
	return sum
}

// stopped reports whether the cancellation poll done (nil: never) is true.
func stopped(done func() bool) bool { return done != nil && done() }

// PollBudget is the work a Section 5 preprocessing shard does between two
// polls of its cancellation hook: 2-path scan work (deg(v)² per node v) or
// r-ball words. Polling once per shard is not enough: on a star's line
// graph K_k one node's scan costs Θ(k²), and a shard holds ~k/64 nodes.
const PollBudget = 1 << 16

// ShardPoll budgets the cancellation polls of one shard of a preprocessing
// scan.
type ShardPoll struct {
	done func() bool
	work int
}

// NewShardPoll returns a ShardPoll of done (nil: never) that polls before
// the shard's first node, so a shard on a sparse graph polls exactly once.
func NewShardPoll(done func() bool) ShardPoll { return ShardPoll{done: done, work: PollBudget} }

// Stop is called before each node: once the work counted since the last
// poll reaches PollBudget, it polls done and reports whether the shard must
// stop.
func (s *ShardPoll) Stop() bool {
	if s.work < PollBudget {
		return false
	}
	s.work = 0
	return s.done != nil && s.done()
}

// Add counts work done since the last poll; with a nil done it counts
// nothing, so Stop never polls again.
func (s *ShardPoll) Add(work int) {
	if s.done != nil {
		s.work += work
	}
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
// colour c < numColors: the coefficients of the polynomial p_c. Digits are
// below q, which fits in 32 bits wherever a round runs (see linialRound).
func colourDigits(dst []uint32, numColors int, q uint64, d int) []uint32 {
	for c := 0; c < numColors; c++ {
		cc := uint64(c)
		for t := 0; t <= d; t++ {
			dst[c*(d+1)+t] = uint32(cc % q)
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
//
// The round first fills table (length >= tablePoints·n) point-major:
// row x holds p_{colors[v]}(x) for every node v, so each polynomial is
// evaluated once per tabulated point rather than once per G²-neighbour.
// Values are below q, which fits in 32 bits: a round runs only while
// q² < numColors <= n. Node v then takes the first row in which no 2-path
// v–u or v–u–w (w ≠ v) ends at its own value, and only past the table
// evaluates the polynomials at the ends of its 2-paths directly. paths is
// g's 2-path count (twoPaths). A scan shard polls done (nil: never) through
// a ShardPoll and returns at once, its remaining next[v] unwritten, when
// done reports true.
func linialRound(g *graph.Graph, colors, next []int, digits, table []uint32, q uint64, d, paths, workers int, done func() bool) int {
	n := g.N()
	r := intmath.NewReducer(q)
	k := d + 1 // digits per colour
	// Horner needs no reduction until the end: for x < q every partial sum
	// Σ_{t>=j} p_t·x^(t−j) is at most Σ_{t>=j} p_t·q^(t−j) = ⌊c/q^j⌋ <= c,
	// so the unreduced value cannot overflow and one Mod gives p_c(x).
	eval := func(c int, x uint64) uint64 {
		p := digits[c*k : c*k+k]
		acc := uint64(p[d])
		for t := d - 1; t >= 0; t-- {
			acc = acc*x + uint64(p[t])
		}
		return r.Mod(acc)
	}
	pts := int(min(q, tablePoints))
	// The fill evaluates pts−1 points of every node, k Horner steps and one
	// Mod each: n·pts·k steps of tabulateStepWork units.
	fill := intmath.SatMul(intmath.SatMul(n, pts*k), tabulateStepWork)
	parallel.For(workers, n, fill, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			c := colors[v]
			table[v] = digits[c*k] // p_c(0) is c's low base-q digit
			for x := 1; x < pts; x++ {
				table[x*n+v] = uint32(eval(c, uint64(x)))
			}
		}
	})
	// The scan walks every node's 2-paths once per table row it clashes
	// in: roundStepWork units per 2-path.
	scan := intmath.SatMul(paths, roundStepWork)
	return parallel.MapReduce(workers, n, scan, -1, func(lo, hi int) int {
		poll := NewShardPoll(done)
		for v := lo; v < hi; v++ {
			if poll.Stop() {
				return -1
			}
			dv := g.Degree(graph.NodeID(v))
			poll.Add(dv * dv)
			x := 0
			for x < pts && clashes(g, graph.NodeID(v), table[x*n:x*n+n]) {
				x++
			}
			if x < pts {
				next[v] = x*int(q) + int(table[x*n+v])
				continue
			}
			cv := colors[v]
			xq, val := uint64(x), uint64(0)
		search:
			for ; xq < q; xq++ {
				val = eval(cv, xq)
				for _, u := range g.Neighbors(graph.NodeID(v)) {
					if eval(colors[u], xq) == val {
						continue search
					}
					for _, w := range g.Neighbors(u) {
						if int(w) != v && eval(colors[w], xq) == val {
							continue search
						}
					}
				}
				break
			}
			if xq == q {
				// Polynomials of distinct colours agree on at most d points
				// and q > Δ(G²)·d, so only a G²-neighbour sharing v's colour
				// can rule out every x.
				return v
			}
			next[v] = int(xq*q + val)
		}
		return -1
	}, firstFailure)
}

// clashes reports whether a 2-path from v, v–u or v–u–w with w ≠ v, ends at
// a node holding v's own value in vals: whether some G²-neighbour of v
// shares its value. It reads the CSR rows of v and its neighbours only, so
// a node reached on two paths is compared twice.
func clashes[T uint32 | int](g *graph.Graph, v graph.NodeID, vals []T) bool {
	val := vals[v]
	for _, u := range g.Neighbors(v) {
		if vals[u] == val {
			return true
		}
		for _, w := range g.Neighbors(u) {
			if vals[w] == val && w != v {
				return true
			}
		}
	}
	return false
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

// verifyDistance2 returns an error unless colors is a distance-2 proper
// colouring of g (proper on G²). It scans every node's 2-paths, sharded
// over up to `workers` host workers, and reports the lowest failing node v
// with the lowest node u within distance 2 of it sharing v's colour, so the
// error is the same at any worker count. paths is g's 2-path count
// (twoPaths), each 2-path one colour compare: verifyStepWork units. A shard
// polls done (nil: never) through a ShardPoll and returns at once, finding
// nothing, when it reports true.
func verifyDistance2(g *graph.Graph, colors []int, paths, workers int, done func() bool) error {
	v := parallel.MapReduce(workers, g.N(), intmath.SatMul(paths, verifyStepWork), -1, func(lo, hi int) int {
		poll := NewShardPoll(done)
		for v := lo; v < hi; v++ {
			if poll.Stop() {
				return -1
			}
			dv := g.Degree(graph.NodeID(v))
			poll.Add(dv * dv)
			if clashes(g, graph.NodeID(v), colors) {
				return v
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
