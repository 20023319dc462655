// Package lowdeg implements Section 5 of the paper: the
// O(log Δ + log log n)-round deterministic MIS (and maximal matching via the
// line graph) for the regime log Δ = o(log n), completing Theorem 1.
//
// Structure, following §5.2:
//
//   - Preprocessing: an O(Δ⁴)-colouring χ of G² (internal/coloring,
//     O(log* n) rounds) and collection of r-hop neighbourhoods with
//     r = 2ℓ, ℓ = Θ(δ·log_Δ n) — O(log r) = O(log log n) rounds by
//     doubling, sizes Δ^r = n^{O(δ)} asserted against the space budget.
//     ℓ depends only on Δ, n and ε, so the host walks every node's r-ball
//     once, before colouring, and reads both the ball sizes and Δ(G²) off
//     that one walk (ballStats); the colouring itself walks no ball.
//   - Stages: each stage runs ℓ Luby phases keyed by pairwise-independent
//     hash functions over the colour space [Δ⁴] (seeds of O(log Δ) bits):
//     in phase i, nodes whose (h_i(χ(v)), v) is a local minimum among
//     surviving neighbours join I_i, and I_i ∪ N(I_i) is removed.
//
// Seed-sequence selection: the paper enumerates all |H*|^ℓ sequences
// locally (free local computation in MPC) and keeps the best, making a
// stage O(1) rounds. Enumerating |H*|^ℓ on a real host is infeasible, so
// this implementation selects each phase's seed greedily — the
// edge-removal maximiser given the current graph — which achieves at least
// the per-phase expected progress and hence the same O(log n) total phase
// bound; stage counts (the paper's round proxy) are reported alongside
// both round accountings (substitutions 2-3 of the repro package
// documentation, and experiment T5).
//
// The phases keep their set and bookkeeping in core.MISNodes and core.Loop,
// as the Section 3/4 loops do. The preprocessing polls cancellation within
// its shards, once per coloring.PollBudget of work, since on a star's line
// graph K_k each of its passes costs Θ(k³) and one node's share Θ(k²).
package lowdeg

import (
	"math"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/intmath"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// Result is the outcome of the Section 5 MIS.
type Result struct {
	IndependentSet []graph.NodeID
	// Rounds holds one record per Luby phase; Objective is the number of
	// edges the selected seed removes.
	Rounds         []core.Round
	Stages         int
	Ell            int // phases per stage
	Radius         int // collected neighbourhood radius r = 2ℓ
	Colors         int
	ColoringRounds int
	MaxBallWords   int
	// RoundsPaper is the paper's accounting: O(log* n) colouring +
	// O(log log n) ball collection + O(1) per stage.
	RoundsPaper int
	// RoundsExecuted charges one aggregation per phase (what this
	// implementation actually performs for greedy seed selection).
	RoundsExecuted int
	// Canceled is set when Params.Done stopped the solve in preprocessing
	// or at a phase (or seed-batch) boundary; IndependentSet is then partial
	// and NOT maximal, and the caller must surface an error instead.
	Canceled bool
}

// Ell returns the phases-per-stage ℓ: the largest value such that the
// (2ℓ)-hop balls, of size at most Δ^{2ℓ}, fit in the per-machine space
// budget (§1.1: "neighbourhoods of radius O(log n / log Δ) already fit onto
// single machines"). The paper's ℓ = Θ(δ·log_Δ n) is the asymptotic form of
// the same constraint with budget n^{Θ(δ)}; deriving ℓ from the concrete
// budget keeps stage compression meaningful at laptop scale. ℓ is clamped
// to [1, 8] — beyond 8 the ball enumeration cost dominates with no
// additional insight.
func Ell(maxDeg, budget int) int {
	if maxDeg < 2 {
		maxDeg = 2
	}
	if budget < 4 {
		budget = 4
	}
	l := int(math.Floor(math.Log(float64(budget)) / (2 * math.Log(float64(maxDeg)))))
	if l < 1 {
		l = 1
	}
	if l > 8 {
		l = 8
	}
	return l
}

// Suitable reports whether the low-degree path applies: the colour space
// Δ⁴ must fit the per-machine budget simcost.Budget(n, ε) (the paper's
// Δ <= n^δ regime). Used by the Theorem 1 dispatcher in the root package.
func Suitable(g *graph.Graph, p core.Params) bool {
	d := g.MaxDegree()
	if d < 2 {
		return true
	}
	d4, overflow := intmath.SatPow(uint64(d), 4)
	return !overflow && d4 <= uint64(simcost.Budget(g.N(), p.Epsilon))
}

// MIS computes a maximal independent set with the stage-compressed
// algorithm. Intended for Δ^4 <= space budget (see Suitable); it remains
// correct beyond that regime but the model will record space violations.
// It is MISIn with a private scratch context.
func MIS(g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	return MISIn(scratch.New(), g, p, model)
}

// lowdegEval is the selection state of a solve, shared by the objective
// and the apply step: the selection scratch, the selected I_h, and the
// generation-stamped membership mark and R-list of the incident-count
// objective. An evaluation allocates nothing. The mark/gen
// pair follows the repository's epoch-stamp invariant (core.NextEpoch):
// mark[v] == gen means v ∈ I_h ∪ N(I_h) for the CURRENT evaluation only,
// gen advances per evaluation, and a uint32 wrap hard-resets the mark
// array, so reuse across seeds can never leak a stale membership bit.
type lowdegEval struct {
	core.NodeGroup
	ih   []graph.NodeID
	mark []uint32
	gen  uint32
	r    []graph.NodeID // the touched set I_h ∪ N(I_h), rebuilt per eval
}

// incidentEdges counts the edges of cur incident to R = ih ∪ N(ih) — the
// edges one Luby phase removes when I_h = ih is selected — touching only R
// and its incidences: Σ_{w∈R} d(w) counts every incident edge once plus
// every R-internal edge twice, so the count is the degree sum minus the
// internal-edge correction. ih must be duplicate-free. It equals a scan of
// all of cur (TestIncidentEdgesMatchesFullScan pins the two to each other)
// without that scan's O(n+m) cost.
func incidentEdges(cur *graph.Graph, ih []graph.NodeID, ev *lowdegEval) int {
	gen := core.NextEpoch(ev.mark, &ev.gen)
	mark := ev.mark
	r := ev.r[:0]
	for _, v := range ih {
		mark[v] = gen
		r = append(r, v)
	}
	for _, v := range ih {
		for _, u := range cur.Neighbors(v) {
			if mark[u] != gen {
				mark[u] = gen
				r = append(r, u)
			}
		}
	}
	degSum, internal := 0, 0
	for _, w := range r {
		for _, u := range cur.Neighbors(w) {
			degSum++
			if mark[u] == gen && u > w {
				internal++
			}
		}
	}
	ev.r = r
	return degSum - internal
}

// MISIn is MIS drawing every per-phase buffer from sc: the removal mask and
// the shrinking graph, which ping-pongs between sc's two loop CSR buffers
// instead of allocating a fresh graph per phase; one selection state serves
// the objective and the apply step. The output is bit-identical to MIS at
// any worker count and for any prior state of sc; sc is Reset at every
// phase boundary and left Reset on return.
func MISIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	return misIn(sc, g, p, model, simcost.Budget(g.N(), p.Epsilon))
}

// misIn is MISIn with ℓ sized by a given machine budget: g's own for MISIn,
// and the input graph's, not its line graph's, for MaximalMatchingIn.
func misIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model, budget int) *Result {
	p.Validate()
	n := g.N()
	res := &Result{}
	lp := core.NewLoop(p, model, "mis", "lowdeg")

	// Preprocessing: colouring and r-hop collection, both reading one walk
	// of every node's r-ball (see the package comment).
	maxDeg := g.MaxDegree()
	ell := Ell(maxDeg, budget)
	res.Ell = ell
	res.Radius = 2 * ell
	words, maxDeg2 := ballStats(g, res.Radius, p.Workers(), p.Done)
	// A walk stopped by Done leaves maxDeg2 partial, but LinialG2 then
	// returns nil at its first poll, before reading it.
	col := coloring.LinialG2(g, maxDeg2, p.Workers(), p.Done, model)
	if lp.Stop() {
		sc.Reset()
		res.Canceled = lp.Canceled
		return res
	}
	res.Colors = col.NumColors
	res.ColoringRounds = col.Rounds

	res.MaxBallWords = words
	model.AssertMachineWords(res.MaxBallWords, "lowdeg.rball")
	ballRounds := intmath.CeilLog2(uint64(res.Radius)) + 1
	model.ChargeRounds(ballRounds, "lowdeg.collect")

	// Pairwise family over the colour space: seeds are 2·O(log Δ) bits.
	minField := uint64(col.NumColors)
	if minField < 4 {
		minField = 4
	}
	fam := hashfam.New(minField, 2)

	cur := g
	// The live list shrinks with the graph, so the per-phase id-space scans
	// (isolated join, NodeSel construction) cost the surviving set instead
	// of n.
	nodes := core.NewMISNodes(n)
	evaluator := hashfam.NewEvaluator(fam)
	// The per-node hash keys are the (solve-invariant) G² colours; every
	// phase builds a NodeSel over the surviving nodes, so a
	// candidate seed costs one EvalKeys pass of length |live| — which
	// shrinks with the graph — followed by a live-list selection scan.
	colorKeyOf := func(v graph.NodeID) uint64 { return uint64(col.Colors[v]) }
	sel := sc.NodeSel()
	ev := &lowdegEval{mark: make([]uint32, n)}

	stage := 0
loop:
	for {
		nodes.JoinIsolated(cur)
		if cur.M() == 0 {
			break
		}
		stage++
		for phase := 1; phase <= ell && cur.M() > 0; phase++ {
			// Phase boundary: the solve's cancellation checkpoint.
			if lp.Stop() {
				break loop
			}
			r := core.Round{EdgesBefore: cur.M()}
			liveNodes := len(nodes.Live()) // the phase-start live set

			curG := cur
			// Per-phase selection plan over the surviving nodes, read by
			// every per-seed evaluation below. The live list is compacted
			// after every removal, so the plan costs O(|live|), not O(n).
			sel.InitList(n, nodes.Live(), colorKeyOf, fam.P()-1)
			// Each candidate is scored through the same selection that
			// applies the winner below, at one worker.
			objective := func(seed []uint64) int64 {
				ev.ih = ev.Select(ev.ih, evaluator, sel, curG, seed, 1)
				return int64(incidentEdges(curG, ev.ih, ev))
			}
			// Luby's pairwise analysis guarantees E[removed] >= |E|/108
			// (the Lemma 13 constant); demand the configured fraction.
			seed := lp.Search(&r, fam, objective, int64(p.ThresholdFrac*float64(cur.M())/108.0), "lowdeg.seed")
			if seed == nil {
				break loop
			}

			ih := ev.Select(sc.NodeIDsCap(n), evaluator, sel, cur, seed, p.Workers())
			r.Selected = len(ih)
			remove := sc.Bools(n)
			nodes.Peel(cur, ih, remove)
			cur = cur.WithoutNodesInto(remove, p.Workers(), sc.Loop().Next())
			r.EdgesAfter = cur.M()
			res.RoundsExecuted += 3 // evaluate + aggregate + apply
			lp.End(r, liveNodes)
			sc.Reset()
		}
		// Maintain r-hop neighbourhoods for the next stage (§5.2.2, one
		// round: removed nodes notify their r-hop balls).
		model.ChargeRounds(1, "lowdeg.maintain")
		res.RoundsExecuted++
	}
	// A cancellation break exits mid-phase; the extra Reset (no-op on the
	// normal path) keeps the "sc left Reset on return" contract for pooled
	// contexts.
	sc.Reset()
	res.Stages = stage
	res.RoundsPaper = col.Rounds + ballRounds + 3*stage
	res.IndependentSet, res.Rounds, res.Canceled = nodes.Set(), lp.Rounds, lp.Canceled
	return res
}

// MatchingResult is the outcome of the Section 5 maximal matching.
type MatchingResult struct {
	Matching []graph.Edge
	MIS      *Result // the underlying line-graph MIS run
}

// MaximalMatchingIn computes a maximal matching by simulating MIS on the
// line graph (§5: "we can perform maximal matching by simulating MIS on the
// line graph of the input graph", feasible since Δ(L(G)) <= 2Δ-2 stays
// small in this regime), running the line-graph MIS on sc with ℓ sized by
// G's machine budget, the one a model of G enforces. Observer events
// are relabeled Algorithm "matching"; their live counts describe the line
// graph the MIS actually iterates on (LiveNodes are surviving input edges).
// Cancellation (Params.Done) propagates through the line-graph solve:
// MIS.Canceled marks an abandoned run whose Matching is partial.
func MaximalMatchingIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *MatchingResult {
	if inner := p.Observe; inner != nil {
		p.Observe = func(ev core.RoundEvent) {
			ev.Algorithm = "matching"
			inner(ev)
		}
	}
	lg, edges := g.LineGraph()
	misRes := misIn(sc, lg, p, model, simcost.Budget(g.N(), p.Epsilon))
	out := &MatchingResult{MIS: misRes}
	for _, v := range misRes.IndependentSet {
		out.Matching = append(out.Matching, edges[v])
	}
	return out
}

// ballStats walks every node's r-ball once (r >= 2) and returns the two
// maxima Section 5 preprocessing reads off that walk: the largest r-ball in
// words (2 per edge endpoint entry), Σ (1 + deg u) over Ball(v, r), which a
// machine must hold after collection; and Δ(G²), the largest
// |Ball(v, 2)| − 1, which sizes the colouring's field. Both need the
// ball's set, not its order, so they read the unsorted walk and its level
// ends. Each ball is independent, so the scan map-reduces over vertex
// shards; each worker reuses one walk scratch across its centres. A shard
// polls done (nil: never) through a coloring.ShardPoll, counting ball words
// as its work, and stops, its maxima partial, when done reports true.
func ballStats(g *graph.Graph, r, workers int, done func() bool) (words, maxDeg2 int) {
	pool := scratch.NewPerWorker(func() *graph.BallScratch { return new(graph.BallScratch) })
	st := parallel.MapReduce(workers, g.N(), ballWork(g, r), ballMax{}, func(lo, hi int) ballMax {
		poll := coloring.NewShardPoll(done)
		bs := pool.Get()
		var m ballMax
		for v := lo; v < hi && !poll.Stop(); v++ {
			w := 0
			for _, u := range g.BallUnsortedInto(bs, graph.NodeID(v), r) {
				w += 1 + g.Degree(u)
			}
			poll.Add(w)
			m.words = max(m.words, w)
			m.deg2 = max(m.deg2, bs.Within(2)-1)
		}
		pool.Put(bs)
		return m
	}, func(a, b ballMax) ballMax {
		return ballMax{words: max(a.words, b.words), deg2: max(a.deg2, b.deg2)}
	})
	return st.words, st.deg2
}

// ballWork bounds ballStats' walk for internal/parallel: n balls, each of
// at most min(n, 1 + Δ·Σ_{i<r} (Δ−1)^i) nodes (the Moore bound) visited
// with their rows of at most Δ+1 words, ballStepWork units per word.
// MISIn picks r so that Δ^r fits the machine budget, which caps the bound
// in the regime the path is meant for.
func ballWork(g *graph.Graph, r int) int {
	n, d := g.N(), g.MaxDegree()
	ball, layer := 1, d
	for i := 0; i < r && ball < n; i++ {
		ball = intmath.SatAdd(ball, layer)
		layer = intmath.SatMul(layer, max(d-1, 0))
	}
	return intmath.SatMul(intmath.SatMul(n, min(ball, n)), intmath.SatMul(d+1, ballStepWork))
}

// ballStepWork is what one word of the r-ball walk costs in
// internal/parallel's work unit (about one CSR word read): a visit mark, a
// level append and a degree read, measured up to ~2 units per bounded word
// at Parallelism 1 on a random regular graph with n = 4096, whose balls
// miss the cache (~0.4 on a grid, whose balls stay in it).
const ballStepWork = 2

// ballMax is a shard's partial of ballStats.
type ballMax struct{ words, deg2 int }
