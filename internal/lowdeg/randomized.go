package lowdeg

import (
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/hashfam"
)

// This file implements the randomized algorithm of Section 5.1 — the
// intermediate construction the deterministic Section 5.2 algorithm
// derandomizes. Its point is seed length: because nodes within distance 2
// carry distinct colours from an O(Δ⁴)-palette, one Luby phase only needs a
// pairwise-independent hash over the colour space, i.e. an O(log Δ)-bit
// seed instead of O(log n) — which is what makes enumerating (or
// derandomizing) whole sequences of phases affordable.

// RandomizedPhaseStats records one randomized phase.
type RandomizedPhaseStats struct {
	Phase       int
	EdgesBefore int
	EdgesAfter  int
	Selected    int
	SeedBits    int
}

// RandomizedResult is the outcome of the Section 5.1 algorithm.
type RandomizedResult struct {
	IndependentSet   []graph.NodeID
	Phases           []RandomizedPhaseStats
	Colors           int
	SeedBitsPerPhase int
}

// RandomizedMIS runs Luby phases keyed by pairwise-independent hash
// functions over the O(Δ⁴)-colouring of G², drawing each phase's O(log Δ)
// bits of randomness from src. It is the baseline against which the
// derandomized MIS (this package's MIS) is compared: same phase structure,
// random instead of searched seeds.
func RandomizedMIS(g *graph.Graph, p core.Params, src *detrand.Source) *RandomizedResult {
	p.Validate()
	n := g.N()
	res := &RandomizedResult{}
	if n == 0 {
		return res
	}
	col := coloring.LinialG2(g, p.Workers(), nil)
	res.Colors = col.NumColors

	minField := uint64(col.NumColors)
	if minField < 4 {
		minField = 4
	}
	fam := hashfam.New(minField, 2)
	res.SeedBitsPerPhase = fam.SeedBits()

	cur := g
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	inMIS := make([]bool, n)
	seed := make([]uint64, fam.SeedLen())
	ev := hashfam.NewEvaluator(fam)
	colourKeyOf := func(v graph.NodeID) uint64 { return uint64(col.Colors[v]) }
	var sel core.NodeSel
	var z []uint64

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
		st := RandomizedPhaseStats{Phase: phase, EdgesBefore: cur.M(), SeedBits: fam.SeedBits()}
		// Draw the phase's random O(log Δ)-bit seed.
		for i := range seed {
			seed[i] = src.Uint64() % fam.P()
		}
		sel.Init(n, alive, colourKeyOf, fam.P()-1)
		z = ev.EvalKeys(seed, sel.Keys(), graph.Grow(z, len(sel.Keys())))
		ih := core.LocalMinNodesSel(nil, cur, &sel, z)
		st.Selected = len(ih)
		remove := make([]bool, n)
		core.Peel(cur, ih, inMIS, alive, remove)
		cur = cur.WithoutNodes(remove)
		st.EdgesAfter = cur.M()
		res.Phases = append(res.Phases, st)
	}
	for v := 0; v < n; v++ {
		if inMIS[v] {
			res.IndependentSet = append(res.IndependentSet, graph.NodeID(v))
		}
	}
	return res
}
