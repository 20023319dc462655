// Package congest carries the paper's closing remark — "we expect our
// method of derandomizing the sampling of a low-degree graph ... will prove
// useful for derandomizing many more problems in low space or limited
// bandwidth models (e.g., the CONGEST model)" — into code: a deterministic
// Luby MIS in the CONGEST model.
//
// CONGEST: the communication network IS the input graph; per round every
// edge carries one O(log n)-bit message in each direction. The
// derandomization engine transfers directly:
//
//   - nodes learn their neighbours' colours once (distance-2 colouring via
//     Linial, so z-values of 2-hop-distinct nodes are independent under a
//     pairwise family over colours — the Section 5.1 trick);
//   - each phase, every node evaluates a batch of candidate O(log Δ)-bit
//     seeds on its 1-hop view (its own removal indicator, weighted by
//     degree — the Luby progress objective);
//   - the per-seed objective vectors are convergecast up a BFS spanning
//     tree (O(D) rounds, one vector entry per message), the root elects
//     the first maximum and broadcasts it back (O(D) rounds);
//   - the elected seed drives the usual Luby step: local minima join, the
//     closed neighbourhood leaves.
//
// Rounds: O((D + batch) · log n_phases) in the simulator's accounting —
// per phase one convergecast/broadcast of the batch vector plus O(1) local
// steps. Disconnected graphs elect seeds per component (each component has
// its own tree), which only helps.
package congest

import (
	"repro/internal/check"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
)

// PhaseStats records one derandomized CONGEST phase.
type PhaseStats struct {
	Phase       int
	EdgesBefore int
	EdgesAfter  int
	Selected    int
	SeedIndex   int
}

// Result is the outcome of the deterministic CONGEST MIS.
type Result struct {
	IndependentSet []graph.NodeID
	Phases         []PhaseStats
	Colors         int
	TreeDepth      int // max BFS depth over components (the D in O(D))
	Rounds         int // charged CONGEST rounds
	BatchSize      int
}

// DetMIS runs the deterministic Luby MIS in the CONGEST model on g.
// batch is the number of candidate seeds voted on per phase (seeds are
// O(log Δ) bits over the colour space, so a batch fits in O(batch) messages
// per tree edge).
func DetMIS(g *graph.Graph, p core.Params, batch int) *Result {
	p.Validate()
	if batch < 1 {
		batch = 16
	}
	n := g.N()
	res := &Result{BatchSize: batch}
	if n == 0 {
		return res
	}

	// Preprocessing: distance-2 colouring (O(log* n) rounds; each Linial
	// iteration exchanges colours over edges) and BFS trees per component.
	col := coloring.LinialG2(g, p.Workers(), nil)
	res.Colors = col.NumColors
	res.Rounds += col.Rounds + 1

	comp, numComp := g.ConnectedComponents()
	depth := bfsMaxDepth(g, comp, numComp)
	res.TreeDepth = depth

	minField := uint64(col.NumColors)
	if minField < 4 {
		minField = 4
	}
	fam := hashfam.New(minField, 2)
	seeds := make([][]uint64, 0, batch)
	enum := fam.Enumerate()
	for len(seeds) < batch && enum.Next() {
		seeds = append(seeds, append([]uint64(nil), enum.Seed()...))
	}

	cur := g
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	inMIS := make([]bool, n)
	ev := hashfam.NewEvaluator(fam)
	colourKeyOf := func(v graph.NodeID) uint64 { return uint64(col.Colors[v]) }
	var sel core.NodeSel
	var z []uint64
	// localMin is I_h under one seed, over the phase's plan. Components
	// share no edges, so one phase-start plan serves every component's
	// election even as earlier components' winners leave the graph.
	localMin := func(cur *graph.Graph, seed []uint64) []graph.NodeID {
		z = ev.EvalKeys(seed, sel.Keys(), graph.Grow(z, len(sel.Keys())))
		return core.LocalMinNodesSel(nil, cur, &sel, z)
	}

	for phase := 1; ; phase++ {
		for v := 0; v < n; v++ {
			if alive[v] && cur.Degree(graph.NodeID(v)) == 0 {
				inMIS[v] = true
				alive[v] = false
			}
		}
		if cur.M() == 0 {
			break
		}
		st := PhaseStats{Phase: phase, EdgesBefore: cur.M()}
		sel.Init(n, alive, colourKeyOf, fam.P()-1)

		// Per-component, per-seed objective: Σ_v d(v)·1{v local min}
		// (computable from the 1-hop view: a node knows its neighbours'
		// colours, hence all z-values it must compare against).
		scores := make([][]int64, numComp)
		for c := range scores {
			scores[c] = make([]int64, len(seeds))
		}
		for si, seed := range seeds {
			for _, v := range localMin(cur, seed) {
				scores[comp[v]][si] += int64(cur.Degree(v))
			}
		}
		// Convergecast + broadcast: O(D + batch) rounds with pipelining
		// (one vector entry per tree edge per round).
		res.Rounds += 2*depth + batch

		// Each component elects its first-maximum seed and applies it.
		elected := make([]int, numComp)
		for c := range elected {
			best := 0
			for si, s := range scores[c] {
				if s > scores[c][best] {
					best = si
				}
			}
			elected[c] = best
		}
		st.SeedIndex = elected[0]

		remove := make([]bool, n)
		for c := 0; c < numComp; c++ {
			for _, v := range localMin(cur, seeds[elected[c]]) {
				if comp[v] != c {
					continue
				}
				inMIS[v] = true
				alive[v] = false
				remove[v] = true
				st.Selected++
			}
		}
		for v := 0; v < n; v++ {
			if !remove[v] || !inMIS[v] {
				continue
			}
			for _, u := range cur.Neighbors(graph.NodeID(v)) {
				if alive[u] {
					alive[u] = false
					remove[u] = true
				}
			}
		}
		res.Rounds += 2 // join/leave notifications over graph edges
		cur = cur.WithoutNodes(remove)
		st.EdgesAfter = cur.M()
		res.Phases = append(res.Phases, st)
	}

	for v := 0; v < n; v++ {
		if inMIS[v] {
			res.IndependentSet = append(res.IndependentSet, graph.NodeID(v))
		}
	}
	if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
		panic("congest: invalid MIS: " + reason)
	}
	return res
}

// bfsMaxDepth returns the maximum BFS-tree depth over components, rooting
// each component at its smallest node id.
func bfsMaxDepth(g *graph.Graph, comp []int, numComp int) int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	rootSeen := make([]bool, numComp)
	maxDepth := 0
	var queue []graph.NodeID
	for v := 0; v < n; v++ {
		c := comp[v]
		if rootSeen[c] {
			continue
		}
		rootSeen[c] = true
		dist[v] = 0
		queue = append(queue[:0], graph.NodeID(v))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if dist[w] == -1 {
					dist[w] = dist[u] + 1
					if dist[w] > maxDepth {
						maxDepth = dist[w]
					}
					queue = append(queue, w)
				}
			}
		}
	}
	return maxDepth
}
