package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// nodeZ builds the test z vector over a live set: small values with ties so
// the id tie-break matters, plus a forced three-way tie when it fits.
func nodeZ(live []graph.NodeID) []uint64 {
	z := make([]uint64, len(live))
	for i := range z {
		z[i] = (uint64(i)*2654435761 + 17) % 997
	}
	if len(z) >= 3 {
		z[0], z[1] = z[2], z[2]
	}
	return z
}

// TestLocalMinNodesSelBranchEquivalence pins the four selection variants of
// the per-round node plan to one answer: the dense flat-table path
// (LocalMinNodesSelIn over a NodeFold: round-wiped tables, single-word
// probes), the epoch-stamped packed scan (LocalMinNodesSel), the unpacked
// ZKey fallback (z values too wide to pack), and the eager reference from the
// definition (eagerLocalMinNodes). The (z, id) order is identical under every variant,
// so the selected sets must match node for node — over a full live set and
// over a half-density subset whose dead slots exercise the fold sentinel.
func TestLocalMinNodesSelBranchEquivalence(t *testing.T) {
	g := gen.GNM(200, 420, 5)
	n := g.N()
	for _, tc := range []struct {
		name string
		keep func(v int) bool
	}{
		{"full", func(v int) bool { return true }},
		{"half", func(v int) bool { return v%2 == 0 }},
	} {
		inQ := make([]bool, n)
		for v := 0; v < n; v++ {
			inQ[v] = tc.keep(v)
		}
		var sel NodeSel
		sel.Init(n, inQ, func(v graph.NodeID) uint64 { return uint64(v) }, 996)
		if !sel.Dense() {
			t.Fatalf("%s: round unexpectedly not dense (live=%d of %d)", tc.name, len(sel.Live()), n)
		}
		z := nodeZ(sel.Live())
		zOf := make([]uint64, n)
		for i, v := range sel.Live() {
			zOf[v] = z[i]
		}

		eager := eagerLocalMinNodes(g, inQ, zOf)
		stamped := append([]graph.NodeID(nil), LocalMinNodesSel(nil, g, &sel, z)...)
		var nf NodeFold
		dense := append([]graph.NodeID(nil), LocalMinNodesSelIn(&nf, nil, g, &sel, z)...)

		var selU NodeSel
		selU.Init(n, inQ, func(v graph.NodeID) uint64 { return uint64(v) }, ^uint64(0))
		if selU.Dense() {
			t.Fatalf("%s: unpacked round claims dense", tc.name)
		}
		unpacked := append([]graph.NodeID(nil), LocalMinNodesSel(nil, g, &selU, z)...)

		for name, got := range map[string][]graph.NodeID{
			"stamped": stamped, "unpacked": unpacked, "dense": dense,
		} {
			if len(got) != len(eager) {
				t.Fatalf("%s/%s selected %d nodes, eager %d", tc.name, name, len(got), len(eager))
			}
			for i := range got {
				if got[i] != eager[i] {
					t.Fatalf("%s/%s node %d is %v, eager %v", tc.name, name, i, got[i], eager[i])
				}
			}
		}
		if len(eager) == 0 {
			t.Fatalf("%s: no nodes selected on a non-empty live set", tc.name)
		}

		// Second seed of the same round on the SAME fold scratch: no rewipe
		// happens (same plan generation), the scatter must plainly overwrite
		// the previous seed's live slots.
		z2 := make([]uint64, len(z))
		for i := range z2 {
			z2[i] = (uint64(len(z)-i)*40503 + 5) % 997
		}
		want2 := LocalMinNodesSel(nil, g, &sel, z2)
		got2 := LocalMinNodesSelIn(&nf, nil, g, &sel, z2)
		if len(got2) != len(want2) {
			t.Fatalf("%s: reused fold selected %d nodes, stamped %d", tc.name, len(got2), len(want2))
		}
		for i := range got2 {
			if got2[i] != want2[i] {
				t.Fatalf("%s: reused fold node %d is %v, stamped %v", tc.name, i, got2[i], want2[i])
			}
		}
	}
}

// TestNodeFoldBlockedScatter drives one NodeFold the way a round's seed
// searches do — table, scatter, probe, once per seed — over three seeds of
// one round, where the table is reused without a rewipe and each scatter
// must plainly overwrite the previous seed's live slots, and then over a
// follow-up round with a smaller live set (new plan generation), where the
// dirty table must be rewiped. Every result is pinned to the stamped scan.
func TestNodeFoldBlockedScatter(t *testing.T) {
	g := gen.GNM(300, 900, 7)
	n := g.N()
	inQ := make([]bool, n)
	for v := 0; v < n; v++ {
		inQ[v] = v%4 != 3
	}
	var sel NodeSel
	sel.Init(n, inQ, func(v graph.NodeID) uint64 { return uint64(v) }, 1<<20-1)
	if !sel.Dense() {
		t.Fatal("round unexpectedly not dense")
	}
	var nf NodeFold
	check := func(z []uint64, label string) {
		t.Helper()
		tab := nf.table(&sel)
		NodeFoldScatter(tab, &sel, z)
		got := NodeFoldSelect(nil, g, &sel, tab)
		want := LocalMinNodesSel(nil, g, &sel, z)
		if len(got) != len(want) {
			t.Fatalf("%s: fold selected %d nodes, stamped %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: node %d is %v, stamped %v", label, i, got[i], want[i])
			}
		}
	}
	for s := 0; s < 3; s++ {
		z := make([]uint64, len(sel.Live()))
		for i := range z {
			z[i] = (uint64(i)*2654435761 + uint64(s)*97 + 3) % (1 << 20)
		}
		check(z, fmt.Sprintf("round 1 seed %d", s))
	}
	// New round over a smaller live set: the generation bump must trigger a
	// rewipe, or stale keys of now-dead nodes would leak into the probes.
	for v := 0; v < n; v++ {
		inQ[v] = v%2 == 0
	}
	sel.Init(n, inQ, func(v graph.NodeID) uint64 { return uint64(v) }, 1<<20-1)
	if !sel.Dense() {
		t.Fatal("second round unexpectedly not dense")
	}
	z := make([]uint64, len(sel.Live()))
	for i := range z {
		z[i] = (uint64(i)*7919 + 1) % (1 << 20)
	}
	check(z, "round 2")
}

// TestEdgeFoldMatchesLocalMinEdgesSel pins the fold-path edge selection
// (endpoint-min tables fed block by block, then the mutual-pointer decode)
// to the touched-set scan on the same round plan, both for a single full
// scatter and for ragged blocked scatters, and across a Begin reuse over the
// dirty tables of a previous seed.
func TestEdgeFoldMatchesLocalMinEdgesSel(t *testing.T) {
	g := gen.GNM(200, 420, 3)
	edges := g.Edges()
	z := make([]uint64, len(edges))
	for i := range z {
		z[i] = (uint64(i)*2654435761 + 17) % 997
	}
	z[0], z[1] = z[2], z[2] // tie needing the per-endpoint id tie-break
	var sel EdgeSel
	EdgeSelInit(&sel, g.N(), edges, nil, 996)
	if !sel.Fold() {
		t.Fatalf("round unexpectedly not fold-eligible (n=%d m=%d)", g.N(), len(edges))
	}
	var s EdgeMinScratch
	want := append([]graph.Edge(nil), LocalMinEdgesSel(&s, &sel, z)...)
	if len(want) == 0 {
		t.Fatal("no edges selected on a non-empty graph")
	}

	var f EdgeFold
	tabs := f.Begin(&sel, 2)
	for lo := 0; lo < len(edges); lo += 64 { // blocked, ragged tail
		hi := lo + 64
		if hi > len(edges) {
			hi = len(edges)
		}
		EdgeFoldScatter(tabs[0], &sel, lo, hi, z[lo:hi])
	}
	EdgeFoldScatter(tabs[1], &sel, 0, len(edges), z) // one full scatter
	for name, tab := range map[string][]uint64{"blocked": tabs[0], "full": tabs[1]} {
		got := EdgeFoldDecode(nil, tab, &sel)
		if len(got) != len(want) {
			t.Fatalf("%s: fold decoded %d edges, touched-set scan %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: edge %d is %v, touched-set scan %v", name, i, got[i], want[i])
			}
		}
	}

	// Begin over the dirty tables of the previous seed group: tables are MIN
	// accumulators, so reuse without the per-call wipe would leak the old
	// minima into the new seed's decode.
	z2 := make([]uint64, len(edges))
	for i := range z2 {
		z2[i] = (uint64(len(edges)-i)*40503 + 11) % 997
	}
	var s2 EdgeMinScratch
	want2 := LocalMinEdgesSel(&s2, &sel, z2)
	tabs = f.Begin(&sel, 1)
	EdgeFoldScatter(tabs[0], &sel, 0, len(edges), z2)
	got2 := EdgeFoldDecode(nil, tabs[0], &sel)
	if len(got2) != len(want2) {
		t.Fatalf("reused fold decoded %d edges, touched-set scan %d", len(got2), len(want2))
	}
	for i := range got2 {
		if got2[i] != want2[i] {
			t.Fatalf("reused fold edge %d is %v, touched-set scan %v", i, got2[i], want2[i])
		}
	}
}

// FuzzLocalMinNodesFoldMatchesSel fuzzes the dense fold selection against the
// epoch-stamped scan over arbitrary graphs, live masks, and z widths, with
// the fold scratch reused dirty across two rounds per input (the second round
// must rewipe on the plan's generation bump).
func FuzzLocalMinNodesFoldMatchesSel(f *testing.F) {
	f.Add(60, 150, uint64(1), uint64(9), uint64(1<<12))
	f.Add(2, 1, uint64(2), uint64(1), uint64(0))
	f.Add(300, 220, uint64(3), uint64(77), uint64(1)<<40)
	f.Fuzz(func(t *testing.T, n, m int, gseed, zseed, zMax uint64) {
		if n < 2 || n > 400 || m < 0 || m > 2000 {
			return
		}
		g := gen.GNM(n, m, gseed)
		x := zseed
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x
		}
		var sel NodeSel
		var nf NodeFold
		for round := 0; round < 2; round++ {
			inQ := make([]bool, g.N())
			for v := range inQ {
				inQ[v] = next()%4 != 0 || round == 0
			}
			sel.Init(g.N(), inQ, func(v graph.NodeID) uint64 { return uint64(v) }, zMax)
			z := make([]uint64, len(sel.Live()))
			for i := range z {
				if zMax == 0 {
					z[i] = 0
				} else {
					z[i] = next() % (zMax + 1)
				}
			}
			want := LocalMinNodesSel(nil, g, &sel, z)
			got := LocalMinNodesSelIn(&nf, nil, g, &sel, z)
			if len(got) != len(want) {
				t.Fatalf("round %d (dense=%v): fold selected %d, stamped %d", round, sel.Dense(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d (dense=%v): node %d is %v, stamped %v", round, sel.Dense(), i, got[i], want[i])
				}
			}
		}
	})
}

// FuzzEdgeFoldMatchesLocalMinEdgesSel fuzzes the edge fold pipeline
// (Begin + ragged blocked scatters + decode) against the touched-set scan
// over arbitrary graphs and z widths, reusing one dirty EdgeFold across two
// seeds per input.
func FuzzEdgeFoldMatchesLocalMinEdgesSel(f *testing.F) {
	f.Add(60, 150, uint64(1), uint64(9), uint64(1<<12), 64)
	f.Add(2, 1, uint64(2), uint64(1), uint64(0), 1)
	f.Add(300, 900, uint64(3), uint64(77), uint64(1)<<40, 512)
	f.Fuzz(func(t *testing.T, n, m int, gseed, zseed, zMax uint64, block int) {
		if n < 2 || n > 400 || m < 1 || m > 2000 || block < 1 || block > 1024 {
			return
		}
		g := gen.GNM(n, m, gseed)
		edges := g.Edges()
		if len(edges) == 0 {
			return
		}
		var sel EdgeSel
		EdgeSelInit(&sel, g.N(), edges, nil, zMax)
		if !sel.Fold() {
			return
		}
		x := zseed
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x
		}
		var ef EdgeFold
		var s EdgeMinScratch
		for seed := 0; seed < 2; seed++ {
			z := make([]uint64, len(edges))
			for i := range z {
				if zMax == 0 {
					z[i] = 0
				} else {
					z[i] = next() % (zMax + 1)
				}
			}
			want := LocalMinEdgesSel(&s, &sel, z)
			tab := ef.Begin(&sel, 1)[0]
			for lo := 0; lo < len(edges); lo += block {
				hi := lo + block
				if hi > len(edges) {
					hi = len(edges)
				}
				EdgeFoldScatter(tab, &sel, lo, hi, z[lo:hi])
			}
			got := EdgeFoldDecode(nil, tab, &sel)
			if len(got) != len(want) {
				t.Fatalf("seed %d: fold decoded %d edges, touched-set scan %d", seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: edge %d is %v, touched-set scan %v", seed, i, got[i], want[i])
				}
			}
		}
	})
}
