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
//
// core.MISNodes performs steps 1 and 5, and a core.Loop keeps each round's
// record, cancellation polls, seed search and observer event.
package mis

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/scratch"
	"repro/internal/simcost"
	"repro/internal/sparsify"
)

// Result is the outcome of the deterministic MIS computation.
type Result struct {
	IndependentSet []graph.NodeID
	// Rounds holds one record per outer iteration, ending with a
	// search-less one when the last iteration left only isolated nodes,
	// whose join it records.
	Rounds []core.Round
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

// misEval is the selection state of a solve, shared by the objective and
// the apply step: the selection scratch, the selected I_h and its
// membership mask in the score (touched entries are reset after each use).
// An evaluation allocates nothing.
type misEval struct {
	core.NodeGroup
	ih   []graph.NodeID
	inIh []bool
}

// DeterministicIn is Deterministic drawing every per-round buffer from sc:
// sparsification state, the flattened N_v tables, the removal mask, and the
// shrinking outer-loop graph, which ping-pongs between sc's two loop CSR
// buffers. One selection state serves the objective and the apply step.
// The output is bit-identical to Deterministic at any worker count and for
// any prior state of sc; sc is Reset at every round boundary and left Reset
// on return.
func DeterministicIn(sc *scratch.Context, g *graph.Graph, p core.Params, model *simcost.Model) *Result {
	p.Validate()
	n := g.N()
	res := &Result{}
	if n == 0 {
		return res
	}
	lp := core.NewLoop(p, model, "mis", "sparsify")
	cur := g
	nodes := core.NewMISNodes(n)
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
	ev := &misEval{inIh: make([]bool, n)}

	for {
		joined := nodes.JoinIsolated(cur)
		if cur.M() == 0 {
			if joined > 0 {
				// The last iteration left only isolated nodes: their join is
				// a search-less round, which emits no event.
				lp.Rounds = append(lp.Rounds, core.Round{})
			}
			break
		}
		// Round boundary: the solve's cancellation checkpoint.
		if lp.Stop() {
			break
		}
		r := core.Round{EdgesBefore: cur.M()}
		liveNodes := len(nodes.Live())

		sp := sparsify.SparsifyNodesIn(sc, cur, p, model)
		if lp.Stop() {
			// The node sparsification may have been abandoned mid-chain.
			break
		}
		q := sp.QGraph
		r.Stages = len(sp.Stages)

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
		model.AssertMachineWords(maxWords, "mis.Nv")
		model.ChargeRounds(2, "mis.collect")

		deg := sp.Deg
		// The selection plan for this round's candidate set, built once and
		// then read by every per-seed evaluation. The sparsifier already
		// produced Q' as an ascending list, so the plan is built from it
		// directly — no second O(n) mask scan per round.
		sel.InitList(n, sp.QList, slotKeyOf, fam.P()-1)
		// score computes the round objective for one I_h through the
		// membership mask, resetting only the touched entries afterwards so
		// the buffer is clean for the next evaluation at O(|I_h|) cost.
		score := func(ih []graph.NodeID) int64 {
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
		// Each candidate is scored through the same selection that applies
		// the winner below, at one worker.
		objective := func(seed []uint64) int64 {
			ev.ih = ev.Select(ev.ih, evaluator, sel, q, seed, 1)
			return score(ev.ih)
		}
		// Lemma 21 ⇒ E[Σ_{v∈N_h} d(v)] >= 0.01δ·Σ_{v∈B} d(v).
		seed := lp.Search(&r, fam, objective, int64(p.ThresholdFrac*0.01*p.Delta()*float64(sp.BWeight)), "mis.seed")
		if seed == nil {
			break
		}

		ih := ev.Select(sc.NodeIDsCap(n), evaluator, sel, q, seed, p.Workers())
		r.Selected = len(ih)
		remove := sc.Bools(n)
		nodes.Peel(cur, ih, remove)
		cur = cur.WithoutNodesInto(remove, p.Workers(), sc.Loop().Next())
		model.ChargeScan("mis.apply")

		r.EdgesAfter = cur.M()
		lp.End(r, liveNodes)
		sc.Reset()
	}
	// A cancellation break exits mid-round; the extra Reset (no-op on the
	// normal path) keeps the "sc left Reset on return" contract so a pooled
	// context survives a canceled solve without leaking slabs.
	sc.Reset()
	res.IndependentSet, res.Rounds, res.Canceled = nodes.Set(), lp.Rounds, lp.Canceled
	return res
}
