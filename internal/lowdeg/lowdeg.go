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

// PhaseStats records one Luby phase.
type PhaseStats struct {
	Stage           int
	Phase           int // phase index within the stage
	EdgesBefore     int
	EdgesAfter      int
	Selected        int
	SeedsTried      int
	SeedFound       bool
	RemovedFraction float64
}

// Result is the outcome of the Section 5 MIS.
type Result struct {
	IndependentSet []graph.NodeID
	Phases         []PhaseStats
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
	// Canceled is set when Params.Done stopped the solve at a phase (or
	// seed-batch) boundary; IndependentSet is then partial and NOT maximal,
	// and the caller must surface an error instead of the result.
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
// Δ⁴ and the r-hop balls must fit the per-machine budget (the paper's
// Δ <= n^δ regime). Used by the Theorem 1 dispatcher in the root package.
func Suitable(g *graph.Graph, p core.Params, model *simcost.Model) bool {
	d := g.MaxDegree()
	if d < 2 {
		return true
	}
	d4, overflow := intmath.SatPow(uint64(d), 4)
	budget := model.MachineBudget()
	if budget == 0 {
		budget = 8 * int(math.Ceil(math.Pow(float64(g.N()), p.Epsilon)))
	}
	return !overflow && d4 <= uint64(budget)
}

// MIS computes a maximal independent set with the stage-compressed
// algorithm. Intended for Δ^4 <= space budget (see Suitable); it remains
// correct beyond that regime but the model will record space violations.
// It is MISIn with a private scratch context.
func MIS(g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	return MISIn(scratch.New(), g, p, model)
}

// lowdegEval is the per-worker pooled state of one candidate-seed objective
// evaluation: the selection state, the selected I_h, and the
// generation-stamped membership mark and R-list of the incident-count
// objective. An evaluation allocates nothing. The mark/gen
// pair follows the repository's epoch-stamp invariant (core.NextEpoch):
// mark[v] == gen means v ∈ I_h ∪ N(I_h) for the CURRENT evaluation only,
// gen advances per evaluation, and a uint32 wrap hard-resets the mark
// array, so pooled reuse across seeds and workers can never leak a stale
// membership bit.
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
// instead of allocating a fresh graph per phase; per-seed selection state
// inside the objective is pooled per worker. The output is bit-identical to
// MIS at any worker count and for any prior state of sc; sc is Reset at
// every phase boundary and left Reset on return.
func MISIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	p.Validate()
	n := g.N()
	res := &Result{}

	// Preprocessing: colouring and r-hop collection.
	col := coloring.LinialG2(g, model)
	res.Colors = col.NumColors
	res.ColoringRounds = col.Rounds

	maxDeg := g.MaxDegree()
	budget := model.MachineBudget()
	if budget == 0 {
		budget = 8 * int(math.Ceil(math.Pow(float64(n), p.Epsilon)))
	}
	ell := Ell(maxDeg, budget)
	res.Ell = ell
	res.Radius = 2 * ell
	res.MaxBallWords = maxBallWords(g, res.Radius, p.Workers())
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
	// Solve-lifetime state stays off the arena (the arena is Reset each
	// phase, these masks persist across phases). The live list mirrors the
	// alive mask as an ascending id list, compacted as nodes leave: phases
	// touch only the surviving set, so the O(n) id-space scans (isolated
	// join, NodeSel construction) shrink with the graph instead of paying n
	// every phase.
	alive := make([]bool, n)
	liveList := make([]graph.NodeID, n)
	for v := range alive {
		alive[v] = true
		liveList[v] = graph.NodeID(v)
	}
	inMIS := make([]bool, n)
	compactLive := func() {
		keep := liveList[:0]
		for _, v := range liveList {
			if alive[v] {
				keep = append(keep, v)
			}
		}
		liveList = keep
	}
	evaluator := hashfam.NewEvaluator(fam)
	// The per-node hash keys are the (solve-invariant) G² colours; every
	// phase builds a NodeSel over the surviving nodes, so a
	// candidate seed costs one EvalKeys pass of length |alive| — which
	// shrinks with the graph — followed by a live-list selection scan.
	colorKeyOf := func(v graph.NodeID) uint64 { return uint64(col.Colors[v]) }
	sel := sc.NodeSel()
	evalPool := scratch.NewPerWorker(func() *lowdegEval { return &lowdegEval{mark: make([]uint32, n)} })

	joinIsolated := func() {
		for _, v := range liveList {
			if alive[v] && cur.Degree(v) == 0 {
				inMIS[v] = true
				alive[v] = false
			}
		}
	}

	stage := 0
	round := 0
loop:
	for {
		joinIsolated()
		compactLive()
		if cur.M() == 0 {
			break
		}
		stage++
		for phase := 1; phase <= ell && cur.M() > 0; phase++ {
			// Phase boundary: the solve's cancellation checkpoint.
			if p.Canceled() {
				res.Canceled = true
				break loop
			}
			st := PhaseStats{Stage: stage, Phase: phase, EdgesBefore: cur.M()}

			curG := cur
			// Per-phase selection plan over the surviving nodes, shared
			// read-only by the concurrent per-seed evaluations below. The
			// live list mirrors the alive mask (compacted after every
			// removal), so the plan costs O(|alive|), not O(n).
			sel.InitList(n, liveList, colorKeyOf, fam.P()-1)
			// Each candidate is scored through the same selection that
			// applies the winner below, at one worker on a pooled state of
			// its own.
			objective := func(seed []uint64) int64 {
				ev := evalPool.Get()
				ev.ih = ev.Select(ev.ih, evaluator, sel, curG, seed, 1)
				v := int64(incidentEdges(curG, ev.ih, ev))
				evalPool.Put(ev)
				return v
			}
			// Luby's pairwise analysis guarantees E[removed] >= |E|/108
			// (the Lemma 13 constant); demand the configured fraction.
			threshold := int64(p.ThresholdFrac * float64(cur.M()) / 108.0)
			if threshold < 1 {
				threshold = 1
			}
			search, batchStats := p.SeedSearch(fam, objective, threshold, "lowdeg.seed", model)
			if search.Canceled {
				// search.Seed may be nil; abandon the phase whole.
				res.Canceled = true
				break loop
			}
			st.SeedsTried = search.SeedsTried
			st.SeedFound = search.Found

			fin := evalPool.Get()
			ih := fin.Select(sc.NodeIDsCap(n), evaluator, sel, cur, search.Seed, p.Workers())
			evalPool.Put(fin)
			st.Selected = len(ih)
			remove := sc.Bools(n)
			core.Peel(cur, ih, inMIS, alive, remove)
			cur = cur.WithoutNodesInto(remove, p.Workers(), sc.Loop().Next())
			compactLive()
			st.EdgesAfter = cur.M()
			st.RemovedFraction = float64(st.EdgesBefore-st.EdgesAfter) / float64(st.EdgesBefore)
			res.Phases = append(res.Phases, st)
			res.RoundsExecuted += 3 // evaluate + aggregate + apply
			round++
			if p.Observe != nil {
				cs := model.Stats()
				p.Observe(core.RoundEvent{
					Algorithm:            "mis",
					Strategy:             "lowdeg",
					Round:                round,
					LiveNodes:            len(sel.Live()), // the phase-start live set
					LiveEdges:            st.EdgesBefore,
					SeedsTried:           st.SeedsTried,
					SeedFound:            st.SeedFound,
					Selected:             st.Selected,
					Batches:              batchStats,
					CostRounds:           cs.Rounds,
					CostSeedBatches:      cs.SeedBatches,
					CostPeakMachineWords: cs.PeakMachineWords,
				})
			}
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

	// The output is the final membership mask, in id order.
	for v := 0; v < n; v++ {
		if inMIS[v] {
			res.IndependentSet = append(res.IndependentSet, graph.NodeID(v))
		}
	}
	return res
}

// MatchingResult is the outcome of the Section 5 maximal matching.
type MatchingResult struct {
	Matching []graph.Edge
	MIS      *Result // the underlying line-graph MIS run
}

// MaximalMatching computes a maximal matching by simulating MIS on the line
// graph (§5: "we can perform maximal matching by simulating MIS on the line
// graph of the input graph", feasible since Δ(L(G)) <= 2Δ-2 stays small in
// this regime). It is MaximalMatchingIn with a private scratch context.
func MaximalMatching(g *graph.Graph, p core.Params, model *simcost.Model) *MatchingResult {
	return MaximalMatchingIn(scratch.New(), g, p, model)
}

// MaximalMatchingIn is MaximalMatching running the line-graph MIS on sc.
// Observer events are relabeled Algorithm "matching"; their live counts
// describe the line graph the MIS actually iterates on (LiveNodes are
// surviving input edges). Cancellation (Params.Done) propagates through the
// line-graph solve: MIS.Canceled marks an abandoned run whose Matching is
// partial.
func MaximalMatchingIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *MatchingResult {
	if inner := p.Observe; inner != nil {
		p.Observe = func(ev core.RoundEvent) {
			ev.Algorithm = "matching"
			inner(ev)
		}
	}
	lg, edges := g.LineGraph()
	misRes := MISIn(sc, lg, p, model)
	out := &MatchingResult{MIS: misRes}
	for _, v := range misRes.IndependentSet {
		out.Matching = append(out.Matching, edges[v])
	}
	return out
}

// maxBallWords returns the largest r-hop ball size in words (2 per edge
// endpoint entry), the quantity a machine must hold after collection. Each
// ball enumeration is independent, so the scan map-reduces over vertex
// shards (this is the dominant preprocessing cost of the Section 5 path);
// each worker reuses one BFS scratch across its centres.
func maxBallWords(g *graph.Graph, r, workers int) int {
	pool := scratch.NewPerWorker(func() *graph.BallScratch { return new(graph.BallScratch) })
	return parallel.MaxInt(workers, g.N(), func(lo, hi int) int {
		bs := pool.Get()
		max := 0
		for v := lo; v < hi; v++ {
			words := 0
			for _, u := range g.BallInto(bs, graph.NodeID(v), r) {
				words += 1 + g.Degree(u)
			}
			if words > max {
				max = words
			}
		}
		pool.Put(bs)
		return max
	})
}
