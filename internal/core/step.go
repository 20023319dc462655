package core

import (
	"repro/internal/condexp"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/simcost"
)

// This file holds the parts of one derandomized Luby step that the matching
// (§3.3), MIS (§4.3) and low-degree (§5.2) loops share: the seed search, the
// selection of one seed against the round's selection plan — which scores
// every candidate at one worker and applies the chosen seed at p.Workers() —
// and the peel of a selected independent set. The loops keep only their
// objective's score and their bookkeeping.

// SeedSearch runs one conditional-expectations scan under p: the first seed
// of fam, in enumeration order, whose objective value reaches threshold, or
// the best seed seen within MaxSeedsPerSearch. Charged batches go to model
// under label, and p.Done is polled between batches. The per-batch stats
// are collected only on observed solves (p.Observe set); each call returns
// a fresh slice, so a RoundEvent may own it, and nil when unobserved.
func (p Params) SeedSearch(fam hashfam.Family, obj condexp.Objective, threshold int64, label string, model *simcost.Model) (condexp.Result, []SeedBatchStat) {
	opts := condexp.Options{
		Model:    model,
		Label:    label,
		MaxSeeds: p.MaxSeedsPerSearch,
		Done:     p.Done,
	}
	var batches []SeedBatchStat
	if p.Observe != nil {
		opts.OnBatch = func(bs SeedBatchStat) { batches = append(batches, bs) }
	}
	res, err := condexp.SearchAtLeast(fam, obj, threshold, opts)
	if err != nil {
		panic(err) // only an empty family fails, and every field here has p >= 2
	}
	return res, batches
}

// NodeGroup is the working state of the node selection: the NodeFold
// table of dense rounds and the z vector of the selected seed. The zero
// value is ready to use; a round loop keeps one per solve, for scoring and
// apply alike, and once warm it allocates nothing per seed.
type NodeGroup struct {
	fold NodeFold
	z    []uint64
}

// Select is I_h of seed over q against the round's plan sel, appended to
// dst[:0]: the key vector is hashed on up to `workers` workers
// (Evaluator.EvalKeysW) and selected by LocalMinNodesSelIn. Seed searches
// score every candidate through it at one worker; the round applies the
// chosen seed through it at p.Workers().
func (g *NodeGroup) Select(dst []graph.NodeID, ev *hashfam.Evaluator, sel *NodeSel, q *graph.Graph, seed []uint64, workers int) []graph.NodeID {
	g.z = graph.Grow(g.z, len(sel.keys))
	return LocalMinNodesSelIn(&g.fold, dst, q, sel, ev.EvalKeysW(seed, sel.keys, g.z, workers))
}

// EdgeGroup is NodeGroup for the edge selection: the selection scratch
// (whose EdgeFold table serves dense rounds) and the z vector of the
// selected seed.
type EdgeGroup struct {
	lm EdgeMinScratch
	z  []uint64
}

// Select is E_h of seed against the round's plan sel, hashed on up to
// `workers` workers and selected by LocalMinEdgesSel, scoring and apply
// alike (see NodeGroup.Select). The result is valid until the group's next
// use.
func (g *EdgeGroup) Select(ev *hashfam.Evaluator, sel *EdgeSel, seed []uint64, workers int) []graph.Edge {
	g.z = graph.Grow(g.z, len(sel.ekeys))
	return LocalMinEdgesSel(&g.lm, sel, ev.EvalKeysW(seed, sel.ekeys, g.z, workers))
}

// Peel applies a selected independent set ih of g (duplicate-free, as every
// selection returns it): its nodes join inSet, every node of ih ∪ N(ih) is
// marked in remove and cleared from alive, and the return value is
// |ih ∪ N(ih)|. remove must hold no mark inside ih ∪ N(ih) on entry — the
// round loops pass a freshly zeroed mask.
func Peel(g *graph.Graph, ih []graph.NodeID, inSet, alive, remove []bool) int {
	for _, v := range ih {
		inSet[v] = true
		alive[v] = false
		remove[v] = true
	}
	removed := len(ih)
	for _, v := range ih {
		for _, u := range g.Neighbors(v) {
			if !remove[u] {
				remove[u] = true
				alive[u] = false
				removed++
			}
		}
	}
	return removed
}
