package core

import (
	"repro/internal/condexp"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/simcost"
)

// This file holds the parts of one derandomized Luby step that the matching
// (§3.3), MIS (§4.3) and low-degree (§5.2) loops share: the seed search, the
// evaluation of one condexp.BlockSeeds group of candidate seeds against the
// round's selection plan, the applied selection of the chosen seed, and the
// peel of a selected independent set. The loops keep only their objective's
// score and their bookkeeping.

// SeedSearch runs one conditional-expectations scan under p: the first seed
// of fam, in enumeration order, whose objective value reaches threshold, or
// the best seed seen within MaxSeedsPerSearch. Charged batches go to model
// under label, and p.Done is polled between batches. The per-batch stats
// are collected only on observed solves (p.Observe set); each call returns
// a fresh slice, so a RoundEvent may own it, and nil when unobserved.
func (p Params) SeedSearch(fam hashfam.Family, obj condexp.BatchObjective, threshold int64, label string, model *simcost.Model) (condexp.Result, []SeedBatchStat) {
	opts := condexp.Options{
		Model:    model,
		Label:    label,
		MaxSeeds: p.MaxSeedsPerSearch,
		Workers:  p.Workers(),
		Done:     p.Done,
	}
	var batches []SeedBatchStat
	if p.Observe != nil {
		opts.OnBatch = func(bs SeedBatchStat) { batches = append(batches, bs) }
	}
	res, err := condexp.SearchAtLeastBatch(fam, obj, threshold, opts)
	if err != nil {
		panic(err) // only an empty family fails, and every field here has p >= 2
	}
	return res, batches
}

// NodeGroup is the per-worker state of the node selection's seed search:
// the kernel tile, the NodeFold tables of dense rounds, the selection output
// and the z vector of the applied seed. The zero value is ready to use; a
// NodeGroup belongs to one worker at a time (round loops pool them with
// scratch.PerWorker), and once warm it allocates nothing per group.
type NodeGroup struct {
	tile hashfam.Tile
	fold NodeFold
	ih   []graph.NodeID
	z    []uint64
}

// Eval evaluates one group of candidate seeds against the round's plan sel
// over q and calls visit(s, I_h) for each seeds[s] in order; I_h is reused
// by the next call, so visit must not retain it. Dense rounds (sel.Dense())
// run the fused pipeline: each hashfam.BlockKeyGrain key block is scattered
// into per-seed NodeFold tables while cache-resident, and the table probe
// selects. Sparse rounds evaluate full z rows and run the epoch-stamped
// LocalMinNodesSel. Both give exactly EvalKeys + LocalMinNodesSel per seed.
func (g *NodeGroup) Eval(ev *hashfam.Evaluator, sel *NodeSel, q *graph.Graph, seeds [][]uint64, visit func(s int, ih []graph.NodeID)) {
	keys := sel.keys
	if !sel.dense {
		tile := g.tile.Rows(len(seeds), len(keys))
		ev.EvalSeedsBlocked(seeds, keys, tile)
		for s, z := range tile {
			g.ih = LocalMinNodesSel(g.ih, q, sel, z)
			visit(s, g.ih)
		}
		return
	}
	tabs := g.fold.Tables(sel, len(seeds))
	tile := g.tile.Rows(len(seeds), min(len(keys), hashfam.BlockKeyGrain))
	ev.EvalSeedsBlockedFold(seeds, keys, tile, func(lo, hi int) {
		for s, tab := range tabs {
			NodeFoldScatter(tab, sel, lo, hi, tile[s])
		}
	})
	for s, tab := range tabs {
		g.ih = NodeFoldSelect(g.ih, q, sel, tab)
		visit(s, g.ih)
	}
}

// Select is the round's applied selection: I_h of seed over q, appended to
// dst[:0]. The key vector is hashed on up to `workers` workers
// (Evaluator.EvalKeysW), and the result equals Eval's I_h for the same seed.
func (g *NodeGroup) Select(dst []graph.NodeID, ev *hashfam.Evaluator, sel *NodeSel, q *graph.Graph, seed []uint64, workers int) []graph.NodeID {
	g.z = graph.Grow(g.z, len(sel.keys))
	return LocalMinNodesSelIn(&g.fold, dst, q, sel, ev.EvalKeysW(seed, sel.keys, g.z, workers))
}

// EdgeGroup is NodeGroup for the edge selection: the kernel tile, the
// selection scratch (whose EdgeFold tables serve dense rounds) and the z
// vector of the applied seed.
type EdgeGroup struct {
	tile hashfam.Tile
	lm   EdgeMinScratch
	z    []uint64
}

// Eval evaluates one group of candidate seeds against the round's plan sel
// and calls visit(s, E_h) for each seeds[s] in order; E_h is reused by the
// next call. Dense rounds (sel.Fold()) scatter each key block into per-seed
// EdgeFold tables while cache-resident and decode the mutual argmins;
// sparse rounds evaluate full z rows through the epoch-stamped scan. Both
// give exactly EvalKeys + LocalMinEdgesSel per seed.
func (g *EdgeGroup) Eval(ev *hashfam.Evaluator, sel *EdgeSel, seeds [][]uint64, visit func(s int, eh []graph.Edge)) {
	keys := sel.ekeys
	if !sel.fold {
		tile := g.tile.Rows(len(seeds), len(keys))
		ev.EvalSeedsBlocked(seeds, keys, tile)
		for s, z := range tile {
			visit(s, LocalMinEdgesSel(&g.lm, sel, z))
		}
		return
	}
	tabs := g.lm.fold.Begin(sel, len(seeds))
	tile := g.tile.Rows(len(seeds), min(len(keys), hashfam.BlockKeyGrain))
	ev.EvalSeedsBlockedFold(seeds, keys, tile, func(lo, hi int) {
		for s, tab := range tabs {
			EdgeFoldScatter(tab, sel, lo, hi, tile[s])
		}
	})
	for s, tab := range tabs {
		g.lm.out = EdgeFoldDecode(g.lm.out, tab, sel)
		visit(s, g.lm.out)
	}
}

// Select is the round's applied selection: E_h of seed, hashed on up to
// `workers` workers. The result equals Eval's E_h for the same seed and is
// valid until the group's next use.
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
