package mpcgraph

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// This file runs ONE derandomized Luby matching step entirely at the
// message level — the end-to-end fidelity artifact for the paper's claim
// that a step costs O(1) MPC rounds. The protocol mirrors Section 3.3:
//
//  1. adjacency lists are distributed one owner machine per node (the
//     layout one Lemma 4 sort produces; charged as such);
//  2. the owner of each canonical edge {u,v} (the owner of u) collects
//     N(v) from v's owner — the "2-hop neighbourhood onto one machine"
//     collection, feasible because degrees are bounded;
//  3. every machine evaluates a whole batch of candidate seeds on its
//     local data: for each seed, how many of its canonical edges are
//     (z, key)-local minima;
//  4. one AllReduce of the per-seed counts elects the winner (first
//     maximum — every machine sees the same totals, so the choice is
//     consistent without further communication);
//  5. owners apply the winning seed and machine 0 assembles E_h.
//
// Tests validate the outcome against the in-memory selection the solvers
// run (core.EdgeSelInit + core.LocalMinEdgesSel) on the same seed batch:
// identical chosen seed, identical matching.
type StepResult struct {
	Matching   []graph.Edge
	SeedIndex  int      // index of the elected seed within the batch
	SeedCounts []uint64 // per-seed |E_h| totals from the AllReduce
	Stats      mpc.Stats
}

// adjRows is one machine's decoded adjacency view: nbrs for random
// access, order for deterministic iteration (store order).
type adjRows struct {
	order []graph.NodeID
	nbrs  map[graph.NodeID][]graph.NodeID
}

// DetLubyMatchingStep runs the protocol on g over a cluster of the given
// shape, evaluating the first `batch` seeds of the canonical enumeration of
// core.PairwiseFamily(n). Degrees must satisfy the collection bound
// (Σ_{e at machine} d(v) words within S); violations are recorded by the
// cluster and surfaced in Stats.
func DetLubyMatchingStep(g *graph.Graph, machines, space, batch int) (*StepResult, error) {
	if batch < 1 {
		return nil, fmt.Errorf("mpcgraph: batch must be >= 1")
	}
	n := g.N()
	fam := core.PairwiseFamily(n)
	seeds := make([][]uint64, 0, batch)
	enum := fam.Enumerate()
	for len(seeds) < batch && enum.Next() {
		seeds = append(seeds, append([]uint64(nil), enum.Seed()...))
	}

	c := mpc.NewCluster(mpc.Config{Machines: machines, Space: space})
	owner := func(v graph.NodeID) int { return int(v) % machines }

	// Owner layout: machine owner(v) stores v's adjacency as
	// [v, deg, nbr...]. Achieving this layout costs one Lemma 4 sort on a
	// real cluster; we charge it as 4 labelled rounds.
	stores := make([][]uint64, machines)
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(graph.NodeID(v))
		row := make([]uint64, 0, 2+len(nbrs))
		row = append(row, uint64(v), uint64(len(nbrs)))
		for _, u := range nbrs {
			row = append(row, uint64(u))
		}
		stores[owner(graph.NodeID(v))] = append(stores[owner(graph.NodeID(v))], row...)
	}
	for i, s := range stores {
		c.SetStore(i, s)
	}
	for r := 0; r < 4; r++ {
		if err := c.Round("sort", func(*mpc.MachineCtx) {}); err != nil {
			return nil, err
		}
	}

	// Decode helper: adjacency rows held by one machine, as a lookup map
	// plus the node order the rows were stored in — every loop below walks
	// the order slice, never the map, so the protocol's message and
	// evaluation order is a pure function of the store contents.
	decodeRows := func(s []uint64) adjRows {
		rows := adjRows{nbrs: map[graph.NodeID][]graph.NodeID{}}
		i := 0
		for i < len(s) {
			v := graph.NodeID(s[i])
			d := int(s[i+1])
			nbrs := make([]graph.NodeID, d)
			for j := 0; j < d; j++ {
				nbrs[j] = graph.NodeID(s[i+2+j])
			}
			rows.nbrs[v] = nbrs
			rows.order = append(rows.order, v)
			i += 2 + d
		}
		return rows
	}

	// Round A (request): for each canonical edge {u,v} (u < v) held via u,
	// u's owner asks owner(v) for N(v). Deduplicate per (machine, v).
	if err := c.Round("collect.request", func(ctx *mpc.MachineCtx) {
		rows := decodeRows(ctx.Store())
		wanted := map[graph.NodeID]bool{}
		var wantOrder []graph.NodeID
		for _, v := range rows.order {
			for _, u := range rows.nbrs[v] {
				if v < u && owner(u) != ctx.ID && !wanted[u] {
					wanted[u] = true
					wantOrder = append(wantOrder, u)
				}
			}
		}
		byOwner := map[int][]uint64{}
		for _, u := range wantOrder {
			byOwner[owner(u)] = append(byOwner[owner(u)], uint64(u))
		}
		for to := 0; to < machines; to++ {
			req := byOwner[to]
			if len(req) == 0 {
				continue
			}
			slices.Sort(req)
			ctx.Send(to, append([]uint64{uint64(ctx.ID)}, req...))
		}
	}); err != nil {
		return nil, err
	}

	// Round B (reply): owners answer with the requested adjacency rows.
	if err := c.Round("collect.reply", func(ctx *mpc.MachineCtx) {
		rows := decodeRows(ctx.Store())
		for _, msg := range ctx.Inbox {
			if len(msg) < 2 {
				continue
			}
			requester := int(msg[0])
			var out []uint64
			for _, w := range msg[1:] {
				v := graph.NodeID(w)
				nbrs := rows.nbrs[v]
				out = append(out, uint64(v), uint64(len(nbrs)))
				for _, u := range nbrs {
					out = append(out, uint64(u))
				}
			}
			ctx.Send(requester, out)
		}
	}); err != nil {
		return nil, err
	}

	// Round C (evaluate): machines fold the replies into their local view,
	// then compute per-seed local-minimum counts over their canonical
	// edges. The remote adjacency is kept host-side per machine (it is
	// semantically machine-local memory; its size was already bounded by
	// the message that carried it).
	remote := make([]map[graph.NodeID][]graph.NodeID, machines)
	perMachineCounts := make([][]uint64, machines)
	if err := c.Round("evaluate", func(ctx *mpc.MachineCtx) {
		local := decodeRows(ctx.Store())
		rem := map[graph.NodeID][]graph.NodeID{}
		for _, msg := range ctx.Inbox {
			dec := decodeRows(msg)
			for _, v := range dec.order {
				rem[v] = dec.nbrs[v]
			}
		}
		remote[ctx.ID] = rem
		neighbourhood := func(v graph.NodeID) []graph.NodeID {
			if nbrs, ok := local.nbrs[v]; ok {
				return nbrs
			}
			return rem[v]
		}
		counts := make([]uint64, len(seeds))
		for si, seed := range seeds {
			z := func(a, b graph.NodeID) core.ZKey {
				e := graph.Edge{U: a, V: b}.Canon()
				key := e.Key(n)
				return core.ZKey{Z: fam.Eval(seed, core.SlotKey(key, 0, n)), ID: key}
			}
			for _, v := range local.order {
				for _, u := range local.nbrs[v] {
					if v >= u {
						continue // not the canonical holder
					}
					ke := z(v, u)
					isMin := true
					for _, w := range neighbourhood(v) {
						if w != u && !ke.Less(z(v, w)) {
							isMin = false
							break
						}
					}
					if isMin {
						for _, w := range neighbourhood(u) {
							if w != v && !ke.Less(z(u, w)) {
								isMin = false
								break
							}
						}
					}
					if isMin {
						counts[si]++
					}
				}
			}
		}
		perMachineCounts[ctx.ID] = counts
	}); err != nil {
		return nil, err
	}

	// AllReduce the per-seed counts; every machine learns the totals and
	// elects the first maximum.
	totals, err := mpc.AllReduceSum(c, len(seeds), func(id int) []uint64 {
		if perMachineCounts[id] == nil {
			return make([]uint64, len(seeds))
		}
		return perMachineCounts[id]
	})
	if err != nil {
		return nil, err
	}
	best := 0
	for i, t := range totals {
		if t > totals[best] {
			best = i
		}
	}

	// Apply: owners emit their matched canonical edges under the elected
	// seed; machine 0 assembles.
	var matched []graph.Edge
	if err := c.Round("apply", func(ctx *mpc.MachineCtx) {
		local := decodeRows(ctx.Store())
		rem := remote[ctx.ID]
		neighbourhood := func(v graph.NodeID) []graph.NodeID {
			if nbrs, ok := local.nbrs[v]; ok {
				return nbrs
			}
			return rem[v]
		}
		seed := seeds[best]
		z := func(a, b graph.NodeID) core.ZKey {
			e := graph.Edge{U: a, V: b}.Canon()
			key := e.Key(n)
			return core.ZKey{Z: fam.Eval(seed, core.SlotKey(key, 0, n)), ID: key}
		}
		var out []uint64
		for _, v := range local.order {
			for _, u := range local.nbrs[v] {
				if v >= u {
					continue
				}
				ke := z(v, u)
				isMin := true
				for _, w := range neighbourhood(v) {
					if w != u && !ke.Less(z(v, w)) {
						isMin = false
						break
					}
				}
				if isMin {
					for _, w := range neighbourhood(u) {
						if w != v && !ke.Less(z(u, w)) {
							isMin = false
							break
						}
					}
				}
				if isMin {
					out = append(out, uint64(v), uint64(u))
				}
			}
		}
		if len(out) > 0 {
			ctx.Send(0, out)
		}
	}); err != nil {
		return nil, err
	}
	if err := c.Round("assemble", func(ctx *mpc.MachineCtx) {
		if ctx.ID != 0 {
			return
		}
		for _, msg := range ctx.Inbox {
			for i := 0; i+1 < len(msg); i += 2 {
				matched = append(matched, graph.Edge{U: graph.NodeID(msg[i]), V: graph.NodeID(msg[i+1])})
			}
		}
	}); err != nil {
		return nil, err
	}
	slices.SortFunc(matched, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	return &StepResult{
		Matching:   matched,
		SeedIndex:  best,
		SeedCounts: totals,
		Stats:      c.Stats(),
	}, nil
}
