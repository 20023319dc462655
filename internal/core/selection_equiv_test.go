package core

// Equivalence tests for the epoch-stamped selections: LocalMinEdgesSel /
// LocalMinNodesSel must match eager-reset reference
// implementations on DIRTY, reused scratch — across id spaces that shrink
// and then grow again (so stale stamp segments from a larger graph sit
// under a smaller one and resurface later), and across a forced generation
// wrap (so the hard-reset path is exercised, not just the happy counter
// bump). The references below re-derive the selection from the definition
// on fresh state every call, so any stale-table leak in the stamped paths
// shows up as a diff.

import (
	"fmt"
	"testing"

	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// eagerLocalMinEdges is the Section 3.3 selection from the definition: an
// edge is selected iff its (z, key) strictly precedes every edge sharing an
// endpoint. Quadratic and allocation-eager on purpose.
func eagerLocalMinEdges(n int, edges []graph.Edge, z []uint64) []graph.Edge {
	var out []graph.Edge
	for i, e := range edges {
		ki := ZKey{z[i], e.Key(n)}
		ok := true
		for j, f := range edges {
			if i == j {
				continue
			}
			if e.U == f.U || e.U == f.V || e.V == f.U || e.V == f.V {
				if !ki.Less(ZKey{z[j], f.Key(n)}) {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// eagerLocalMinNodes is the Section 4.3 selection from the definition,
// with z indexed by node id.
func eagerLocalMinNodes(q *graph.Graph, inQ []bool, z []uint64) []graph.NodeID {
	var out []graph.NodeID
	for v := 0; v < q.N(); v++ {
		if !inQ[v] {
			continue
		}
		kv := ZKey{z[v], uint64(v)}
		ok := true
		for _, u := range q.Neighbors(graph.NodeID(v)) {
			if inQ[u] && !kv.Less(ZKey{z[u], uint64(u)}) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

func edgesEqual(t *testing.T, label string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

func nodesEqual(t *testing.T, label string, got, want []graph.NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d is %d, want %d", label, i, got[i], want[i])
		}
	}
}

// selectionWorkloads is a shrink-then-grow id-space sequence: the scratch
// reused across entries first sizes its tables for n = 384, then runs two
// smaller graphs on the dirty larger tables, then grows past the original
// size so zeroed fresh segments mix with stale stamped ones.
var selectionWorkloads = []struct {
	family string
	n, avg int
	seed   uint64
}{
	{"gnm", 384, 8, 1},
	{"gnm", 64, 6, 2},
	{"regular", 96, 4, 3},
	{"powerlaw", 512, 6, 4},
	{"grid", 100, 4, 5},
}

// zFill fills z[i] for each key index with either packed-friendly small
// values (z < zCap) or full-width draws, from a deterministic source.
func zFill(z []uint64, src *detrand.Source, zCap uint64) {
	for i := range z {
		if zCap > 0 {
			z[i] = src.Uint64() % zCap
		} else {
			z[i] = src.Uint64()
		}
	}
}

func TestLocalMinEdgesStampedMatchesEagerOnDirtyScratch(t *testing.T) {
	var s EdgeMinScratch // ONE scratch for the whole table: every call after the first runs dirty
	src := detrand.New(7)
	for round := 0; round < 3; round++ {
		for _, w := range selectionWorkloads {
			g, err := gen.ByName(w.family, w.n, w.avg, w.seed)
			if err != nil {
				t.Fatal(err)
			}
			edges := g.Edges()
			z := make([]uint64, len(edges))
			// The graph's own id space selects through the flat fold tables;
			// padding it past four ids per edge forces the stamped tables.
			for _, n := range []int{g.N(), 4*len(edges) + 1} {
				// Small z exercises the packed paths, full-width the ZKey path.
				for _, zCap := range []uint64{EdgeField(g.N()), 0} {
					zFill(z, src, zCap)
					want := eagerLocalMinEdges(n, edges, z)
					label := fmt.Sprintf("round %d %s/n=%d id space %d zCap=%d", round, w.family, w.n, n, zCap)
					var sel EdgeSel
					zMax := zCap - 1
					if zCap == 0 {
						zMax = ^uint64(0)
					}
					EdgeSelInit(&sel, n, edges, nil, zMax)
					edgesEqual(t, label+" (Sel)", LocalMinEdgesSel(&s, &sel, z), want)
				}
			}
		}
	}
}

// TestLocalMinEdgesStampWrap forces the uint32 generation counter to wrap
// mid-sequence: the selections immediately before the wrap, at the wrap
// (hard reset to generation 1), and after it must all match the eager
// reference — the documented reason results stay bit-identical across a
// wrap.
func TestLocalMinEdgesStampWrap(t *testing.T) {
	g, err := gen.ByName("gnm", 256, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	z := make([]uint64, len(edges))
	src := detrand.New(13)
	var s EdgeMinScratch
	var sel EdgeSel
	// Stamps serve sparse rounds only: pad the id space past 4|edges|.
	n := 4*len(edges) + 1
	EdgeSelInit(&sel, n, edges, nil, EdgeField(g.N())-1)
	if sel.Fold() {
		t.Fatal("padded round unexpectedly fold-eligible")
	}
	zFill(z, src, EdgeField(g.N()))
	edgesEqual(t, "pre-wrap warm-up", LocalMinEdgesSel(&s, &sel, z), eagerLocalMinEdges(n, edges, z))
	// Park the counter one step from wrapping; the stamp table now holds
	// live entries at the maximal generation.
	s.epoch = ^uint32(0) - 1
	for i := 0; i < 4; i++ { // crosses ^uint32(0) and the hard reset to 1
		zFill(z, src, EdgeField(g.N()))
		want := eagerLocalMinEdges(n, edges, z)
		edgesEqual(t, fmt.Sprintf("wrap step %d (epoch %d)", i, s.epoch), LocalMinEdgesSel(&s, &sel, z), want)
	}
	if s.epoch == 0 || s.epoch > 3 {
		t.Fatalf("epoch after wrap = %d, want a small positive generation", s.epoch)
	}
}

// TestNodeSelStampedMatchesEagerOnDirtyScratch drives ONE NodeSel through
// shrinking-then-growing graphs and changing live masks, comparing
// LocalMinNodesSel (z indexed by live position) against the eager
// id-indexed reference, packed and struct paths both.
func TestNodeSelStampedMatchesEagerOnDirtyScratch(t *testing.T) {
	var sel NodeSel
	src := detrand.New(23)
	for round := 0; round < 3; round++ {
		for _, w := range selectionWorkloads {
			g, err := gen.ByName(w.family, w.n, w.avg, w.seed)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			inQ := make([]bool, n)
			for v := range inQ {
				inQ[v] = src.Uint64()%4 != 0 // ~3/4 live, varies per round
			}
			zFull := make([]uint64, n)
			for _, zCap := range []uint64{EdgeField(n), 0} {
				zFill(zFull, src, zCap)
				zMax := zCap - 1
				if zCap == 0 {
					zMax = ^uint64(0)
				}
				sel.Init(n, inQ, func(v graph.NodeID) uint64 { return uint64(v) }, zMax)
				zLive := make([]uint64, len(sel.Live()))
				for i, v := range sel.Live() {
					zLive[i] = zFull[v]
				}
				got := LocalMinNodesSel(nil, g, &sel, zLive)
				want := eagerLocalMinNodes(g, inQ, zFull)
				nodesEqual(t, fmt.Sprintf("round %d %s/n=%d zCap=%d", round, w.family, w.n, zCap), got, want)
			}
		}
	}
}

// TestNodeSelStampWrap is the node-side generation-wrap test: positions
// stamped at the maximal generation must not alias the post-reset
// generations.
func TestNodeSelStampWrap(t *testing.T) {
	g, err := gen.ByName("regular", 128, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	src := detrand.New(29)
	var sel NodeSel
	inQ := make([]bool, n)
	zFull := make([]uint64, n)
	run := func(label string) {
		for v := range inQ {
			inQ[v] = src.Uint64()%3 != 0
		}
		zFill(zFull, src, EdgeField(n))
		sel.Init(n, inQ, func(v graph.NodeID) uint64 { return uint64(v) }, EdgeField(n)-1)
		zLive := make([]uint64, len(sel.Live()))
		for i, v := range sel.Live() {
			zLive[i] = zFull[v]
		}
		nodesEqual(t, label, LocalMinNodesSel(nil, g, &sel, zLive), eagerLocalMinNodes(g, inQ, zFull))
	}
	run("pre-wrap warm-up")
	sel.epoch = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		run(fmt.Sprintf("wrap step %d (epoch %d)", i, sel.epoch))
	}
	if sel.epoch == 0 || sel.epoch > 3 {
		t.Fatalf("epoch after wrap = %d, want a small positive generation", sel.epoch)
	}
}

// FuzzSelectionStampedMatchesEager feeds arbitrary edge sets and z values
// through the stamped selections on a process-lifetime dirty scratch and
// demands agreement with the eager references. The corpus mixes packed and
// full-width z regimes via the raw bytes.
func FuzzSelectionStampedMatchesEager(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 2, 3, 0, 3}, false)
	f.Add(uint64(42), []byte{0, 1, 1, 2, 2, 0, 3, 4}, true)
	f.Add(uint64(9), []byte{7, 3, 3, 1, 0, 7, 5, 6, 6, 7}, false)
	var s EdgeMinScratch // shared across fuzz invocations: always dirty
	var sel NodeSel
	f.Fuzz(func(t *testing.T, zseed uint64, raw []byte, fullWidth bool) {
		if len(raw) < 2 {
			t.Skip()
		}
		n := 2 + int(raw[0]%32)
		// Decode an edge set from byte pairs, dropping loops and dupes.
		seen := map[graph.Edge]bool{}
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			u, v := graph.NodeID(int(raw[i])%n), graph.NodeID(int(raw[i+1])%n)
			if u == v {
				continue
			}
			e := graph.Edge{U: u, V: v}.Canon()
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		g := graph.FromEdges(n, edges)
		edges = g.Edges() // canonical order
		src := detrand.New(zseed)
		zCap := EdgeField(n)
		if fullWidth {
			zCap = 0
		}
		zMax := zCap - 1
		if zCap == 0 {
			zMax = ^uint64(0)
		}
		z := make([]uint64, len(edges))
		zFill(z, src, zCap)
		var esel EdgeSel
		EdgeSelInit(&esel, n, edges, nil, zMax)
		edgesEqual(t, "fuzz edges", LocalMinEdgesSel(&s, &esel, z), eagerLocalMinEdges(n, edges, z))

		inQ := make([]bool, n)
		zFull := make([]uint64, n)
		for v := range inQ {
			inQ[v] = src.Uint64()%4 != 0
		}
		zFill(zFull, src, zCap)
		sel.Init(n, inQ, func(v graph.NodeID) uint64 { return uint64(v) }, zMax)
		zLive := make([]uint64, len(sel.Live()))
		for i, v := range sel.Live() {
			zLive[i] = zFull[v]
		}
		nodesEqual(t, "fuzz nodes", LocalMinNodesSel(nil, g, &sel, zLive), eagerLocalMinNodes(g, inQ, zFull))
	})
}

// TestNodeSelInitListMatchesMask pins the prebuilt-list constructor: for the
// list the mask scan would produce, InitList must build a plan whose live
// order, key vector, position index and packed decision are all identical to
// Init's — on a single dirty NodeSel driven across shrink-then-grow rounds,
// interleaving the two constructors so each must overwrite the other's
// stamped state.
func TestNodeSelInitListMatchesMask(t *testing.T) {
	var byMask, byList NodeSel
	src := detrand.New(29)
	for round := 0; round < 3; round++ {
		for _, w := range selectionWorkloads {
			g, err := gen.ByName(w.family, w.n, w.avg, w.seed)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			inQ := make([]bool, n)
			var ids []graph.NodeID
			for v := range inQ {
				inQ[v] = src.Uint64()%3 != 0
				if inQ[v] {
					ids = append(ids, graph.NodeID(v))
				}
			}
			keyOf := func(v graph.NodeID) uint64 { return SlotKey(uint64(v), 0, n) }
			zMax := EdgeField(n) - 1
			// Alternate which constructor runs on which (dirty) plan.
			a, b := &byMask, &byList
			if round%2 == 1 {
				a, b = b, a
			}
			a.Init(n, inQ, keyOf, zMax)
			b.InitList(n, ids, keyOf, zMax)

			if len(a.Live()) != len(b.Live()) {
				t.Fatalf("%s/n=%d: live %d vs %d", w.family, w.n, len(a.Live()), len(b.Live()))
			}
			for i := range a.Live() {
				if a.Live()[i] != b.Live()[i] || a.Keys()[i] != b.Keys()[i] {
					t.Fatalf("%s/n=%d: slot %d differs: (%d,%d) vs (%d,%d)",
						w.family, w.n, i, a.Live()[i], a.Keys()[i], b.Live()[i], b.Keys()[i])
				}
			}
			if a.packed != b.packed || a.idBits != b.idBits || a.n != b.n {
				t.Fatalf("%s/n=%d: plan metadata differs: packed %v/%v idBits %d/%d",
					w.family, w.n, a.packed, b.packed, a.idBits, b.idBits)
			}
			// The selections the two plans drive must agree exactly.
			zLive := make([]uint64, len(a.Live()))
			for i := range zLive {
				zLive[i] = src.Uint64() % EdgeField(n)
			}
			nodesEqual(t, fmt.Sprintf("%s/n=%d round %d", w.family, w.n, round),
				LocalMinNodesSel(nil, g, b, zLive), LocalMinNodesSel(nil, g, a, zLive))
		}
	}
}
