// Package mis implements Theorem 14 of the paper: a deterministic fully
// scalable MPC algorithm computing a maximal independent set in O(log n)
// rounds with O(n^ε) space per machine.
//
// Each outer iteration (Algorithm 3) runs in O(1) charged MPC rounds:
//
//  1. isolated nodes join the MIS;
//  2. the node sparsification of Section 4.2 picks the class Q0 = C_i whose
//     good nodes B (Corollary 16) see a δ/3 reciprocal-degree mass in C_i,
//     and subsamples Q0 down to Q' with induced degree O(n^{4δ});
//  3. every B-node's machine gathers a set N_v of up to n^{4δ} of its Q'
//     neighbours with their Q'-neighbourhoods (asserted <= space budget);
//  4. one Luby step is derandomized: nodes get pairwise-independent
//     z-values, the candidate independent set I_h consists of the Q'-local
//     minima, and the seed search targets a constant fraction of Lemma 21's
//     bound E[Σ_{v∈N_h} d(v)] >= 0.01δ·Σ_{v∈B} d(v);
//  5. I_h joins the output and I_h ∪ N(I_h) leaves the graph.
//
// As with matching, correctness is unconditional: I_h is independent by
// construction, non-empty whenever edges remain, and the loop ends with all
// surviving nodes isolated and added to the MIS.
package mis

import (
	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/scratch"
	"repro/internal/simcost"
	"repro/internal/sparsify"
)

// IterStats records one outer iteration.
type IterStats struct {
	Iteration        int
	EdgesBefore      int
	EdgesAfter       int
	RemovedFraction  float64
	ClassIndex       int
	Stages           int
	SparsifyFallback bool
	QSize            int
	QMaxDegree       int
	MaxMachineWords  int
	SeedsTried       int
	SeedFound        bool
	Selected         int // |I_h|
	Removed          int // |I_h ∪ N(I_h)|
	ObjectiveValue   int64
	Threshold        int64
	IsolatedJoined   int
}

// Result is the outcome of the deterministic MIS computation.
type Result struct {
	IndependentSet []graph.NodeID
	Iterations     []IterStats
	// Canceled is set when Params.Done stopped the solve at a round (or
	// seed-batch) boundary; IndependentSet is then partial and NOT maximal,
	// and the caller must surface an error instead of the result.
	Canceled bool
}

// Deterministic computes a maximal independent set of g with the
// derandomized algorithm of Section 4. It is DeterministicIn with a private
// scratch context; repeated solvers (the Engine) share one.
func Deterministic(g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	return DeterministicIn(scratch.New(), g, p, model)
}

// misEval is the per-worker pooled state of one candidate-seed objective
// evaluation: the seed-group state and the I_h membership mask of the
// score (touched entries are reset after each use). An evaluation allocates
// nothing.
type misEval struct {
	core.NodeGroup
	inIh []bool
}

// DeterministicIn is Deterministic drawing every per-round buffer from sc:
// sparsification state, the flattened N_v tables, the removal mask, and the
// shrinking outer-loop graph, which ping-pongs between sc's two loop CSR
// buffers. Per-seed selection state inside the objective is pooled per
// worker. The output is bit-identical to Deterministic at any worker count
// and for any prior state of sc; sc is Reset at every round boundary and
// left Reset on return.
func DeterministicIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	p.Validate()
	n := g.N()
	res := &Result{}
	if n == 0 {
		return res
	}
	cur := g
	// Solve-lifetime state stays off the arena: the arena is Reset each
	// round, while these masks accumulate across rounds.
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	inMIS := make([]bool, n)
	fam := core.PairwiseFamily(n)
	evaluator := hashfam.NewEvaluator(fam)
	// The slot-0 node keys are seed-independent, so every round builds a
	// NodeSel over the round's Q' candidates: each candidate seed
	// then costs one EvalKeys pass of length |Q'| — the touched set — rather
	// than the full id space, and the selection iterates the live list
	// through the epoch-stamped position index.
	sel := sc.NodeSel()
	slotKeyOf := func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }
	gamma := core.NewDegreeClasses(n, p.InvDelta).GroupSize()
	evalPool := scratch.NewPerWorker(func() *misEval { return &misEval{inIh: make([]bool, n)} })

	joinIsolated := func(st *IterStats) {
		for v := 0; v < n; v++ {
			if alive[v] && cur.Degree(graph.NodeID(v)) == 0 {
				inMIS[v] = true
				alive[v] = false
				if st != nil {
					st.IsolatedJoined++
				}
			}
		}
	}

	for iter := 1; ; iter++ {
		st := IterStats{Iteration: iter, EdgesBefore: cur.M()}
		joinIsolated(&st)
		if cur.M() == 0 {
			if st.IsolatedJoined > 0 {
				res.Iterations = append(res.Iterations, st)
			}
			break
		}
		// Round boundary: the solve's cancellation checkpoint.
		if p.Canceled() {
			res.Canceled = true
			break
		}
		// Observer-only live count; unobserved solves skip it.
		liveNodes := 0
		if p.Observe != nil {
			for v := 0; v < n; v++ {
				if alive[v] {
					liveNodes++
				}
			}
		}

		sp := sparsify.SparsifyNodesIn(sc, cur, p, model)
		if p.Canceled() {
			// The node sparsification may have been abandoned mid-chain.
			res.Canceled = true
			break
		}
		q := sp.QGraph
		st.ClassIndex = sp.ClassIndex
		st.Stages = len(sp.Stages)
		st.SparsifyFallback = sp.UsedFallback
		st.QSize = len(sp.QList)
		st.QMaxDegree = q.MaxDegree()

		// N_v construction (Section 4.3): up to γ of v's Q'-neighbours (the
		// smallest ids — "an arbitrary subset" — for determinism), plus
		// their Q'-neighbourhoods on v's machine. The per-owner lists are
		// flattened into one arena-backed array with an offsets table so a
		// round costs no per-node allocations.
		nvFlat := sc.NodeIDsCap(2 * cur.M())
		nvStart := sc.IntsCap(n + 1)
		nvOwner := sc.NodeIDsCap(n)
		nvStart = append(nvStart, 0)
		maxWords := 0
		for v := 0; v < n; v++ {
			if !sp.B[v] {
				continue
			}
			lo := len(nvFlat)
			for _, u := range cur.Neighbors(graph.NodeID(v)) {
				if sp.Q[u] {
					nvFlat = append(nvFlat, u)
					if len(nvFlat)-lo == gamma {
						break
					}
				}
			}
			if len(nvFlat) == lo {
				continue
			}
			words := len(nvFlat) - lo
			for _, u := range nvFlat[lo:] {
				words += q.Degree(u)
			}
			if words > maxWords {
				maxWords = words
			}
			nvStart = append(nvStart, len(nvFlat))
			nvOwner = append(nvOwner, graph.NodeID(v))
		}
		st.MaxMachineWords = maxWords
		model.AssertMachineWords(maxWords, "mis.Nv")
		model.ChargeRounds(2, "mis.collect")

		deg := sp.Deg
		// The selection plan for this round's candidate set, built once and
		// then shared read-only by every concurrent per-seed evaluation. The
		// sparsifier already produced Q' as an ascending list, so the plan is
		// built from it directly — no second O(n) mask scan per round.
		sel.InitList(n, sp.QList, slotKeyOf, fam.P()-1)
		// score computes the round objective for one I_h through the pooled
		// membership mask, resetting only the touched entries afterwards so
		// the buffer is clean for the next evaluation at O(|I_h|) cost.
		score := func(ev *misEval, ih []graph.NodeID) int64 {
			for _, v := range ih {
				ev.inIh[v] = true
			}
			var value int64
			for t := range nvOwner {
				for _, u := range nvFlat[nvStart[t]:nvStart[t+1]] {
					if ev.inIh[u] {
						value += int64(deg[nvOwner[t]])
						break
					}
				}
			}
			for _, v := range ih {
				ev.inIh[v] = false
			}
			return value
		}
		// Each group of BlockSeeds candidates makes one block-major kernel
		// pass over the round's |Q'| node keys (core.NodeGroup); group
		// boundaries depend only on the batch length and each group writes
		// only its own value slots, so results are worker-count independent.
		objective := func(seeds [][]uint64, values []int64) {
			condexp.ForEachSeedBlock(p.Workers(), len(seeds), func(lo, hi int) {
				ev := evalPool.Get()
				ev.Eval(evaluator, sel, q, seeds[lo:hi], func(s int, ih []graph.NodeID) {
					values[lo+s] = score(ev, ih)
				})
				evalPool.Put(ev)
			})
		}
		// Lemma 21 ⇒ E[Σ_{v∈N_h} d(v)] >= 0.01δ·Σ_{v∈B} d(v).
		st.Threshold = int64(p.ThresholdFrac * 0.01 * p.Delta() * float64(sp.BWeight))
		if st.Threshold < 1 {
			st.Threshold = 1
		}
		search, batchStats := p.SeedSearch(fam, objective, st.Threshold, "mis.seed", model)
		if search.Canceled {
			// search.Seed may be nil; abandon the round whole.
			res.Canceled = true
			break
		}
		st.SeedsTried = search.SeedsTried
		st.SeedFound = search.Found
		st.ObjectiveValue = search.Value

		fin := evalPool.Get()
		ih := fin.Select(sc.NodeIDsCap(n), evaluator, sel, q, search.Seed, p.Workers())
		evalPool.Put(fin)
		st.Selected = len(ih)
		remove := sc.Bools(n)
		st.Removed = core.Peel(cur, ih, inMIS, alive, remove)
		cur = cur.WithoutNodesInto(remove, p.Workers(), sc.Loop().Next())
		model.ChargeScan("mis.apply")

		st.EdgesAfter = cur.M()
		if st.EdgesBefore > 0 {
			st.RemovedFraction = float64(st.EdgesBefore-st.EdgesAfter) / float64(st.EdgesBefore)
		}
		res.Iterations = append(res.Iterations, st)
		if p.Observe != nil {
			cs := model.Stats()
			p.Observe(core.RoundEvent{
				Algorithm:            "mis",
				Strategy:             "sparsify",
				Round:                iter,
				LiveNodes:            liveNodes,
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
	// A cancellation break exits mid-round; the extra Reset (no-op on the
	// normal path) keeps the "sc left Reset on return" contract so a pooled
	// context survives a canceled solve without leaking slabs.
	sc.Reset()

	// The output is the final membership mask, in id order.
	for v := 0; v < n; v++ {
		if inMIS[v] {
			res.IndependentSet = append(res.IndependentSet, graph.NodeID(v))
		}
	}
	return res
}
