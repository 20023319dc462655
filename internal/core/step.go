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
// and the MIS node state a selected independent set is peeled from. The
// loops keep only their objective's score; loop.go holds their bookkeeping.

// SeedSearch runs one conditional-expectations scan under p: the first seed
// of fam, in enumeration order, whose objective value reaches threshold, or
// the best seed seen within MaxSeedsPerSearch. It scores batches of the
// model's S candidates, charges each to model under label, and polls p.Done
// between batches. When stats is non-nil, each batch's stat is appended to
// *stats; Loop.Search asks for them on observed solves only.
func (p Params) SeedSearch(fam hashfam.Family, obj condexp.Objective, threshold int64, label string, model *simcost.Model, stats *[]SeedBatchStat) condexp.Result {
	opts := condexp.Options{
		BatchSize: model.S(),
		Model:     model,
		Label:     label,
		MaxSeeds:  p.MaxSeedsPerSearch,
		Done:      p.Done,
	}
	if stats != nil {
		opts.OnBatch = func(bs SeedBatchStat) { *stats = append(*stats, bs) }
	}
	res, err := condexp.SearchAtLeast(fam, obj, threshold, opts)
	if err != nil {
		panic(err) // only an empty family fails, and every field here has p >= 2
	}
	return res
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

// MISNodes is the node state of an MIS round loop: the set built so far
// and the live nodes as an ascending list, compacted as nodes leave, so
// per-round scans cost the live set, not the id space. It outlives the
// scratch arena, which the loops Reset every round.
type MISNodes struct {
	in   []bool
	live []graph.NodeID
}

// NewMISNodes returns the state of an n-node graph: all live, none in the
// set.
func NewMISNodes(n int) MISNodes {
	s := MISNodes{in: make([]bool, n), live: make([]graph.NodeID, n)}
	for v := range s.live {
		s.live[v] = graph.NodeID(v)
	}
	return s
}

// Live returns the live nodes in ascending order, valid until the next
// JoinIsolated or Peel.
func (s *MISNodes) Live() []graph.NodeID { return s.live }

// Set returns the set in ascending order.
func (s *MISNodes) Set() []graph.NodeID {
	var out []graph.NodeID
	for v, in := range s.in {
		if in {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// JoinIsolated moves the live nodes that g leaves isolated into the set and
// returns how many joined.
func (s *MISNodes) JoinIsolated(g *graph.Graph) int {
	keep := s.live[:0]
	for _, v := range s.live {
		if g.Degree(v) > 0 {
			keep = append(keep, v)
		} else {
			s.in[v] = true
		}
	}
	joined := len(s.live) - len(keep)
	s.live = keep
	return joined
}

// Peel applies a selected independent set ih of live nodes of g: ih joins
// the set, and ih ∪ N(ih) is marked in remove, which must be all false on
// entry, and leaves the live list.
func (s *MISNodes) Peel(g *graph.Graph, ih []graph.NodeID, remove []bool) {
	for _, v := range ih {
		s.in[v] = true
		remove[v] = true
		for _, u := range g.Neighbors(v) {
			remove[u] = true
		}
	}
	keep := s.live[:0]
	for _, v := range s.live {
		if !remove[v] {
			keep = append(keep, v)
		}
	}
	s.live = keep
}
