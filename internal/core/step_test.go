package core

import (
	"fmt"
	"testing"

	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
)

// groupKeyCounts straddle hashfam.BlockKeyGrain — one ragged block, one
// exact block, a full block plus a one-key tail — then span several blocks,
// and finally pass the EvalKeysW shard threshold so Select's sharded
// hashing runs too.
var groupKeyCounts = []int{511, 512, 513, 1500, 8500}

// groupWidths are the seed-group widths the tables evaluate: one seed, the
// ×4 pairwise kernel's per-seed tail alone (3), exactly one ×4 pass (4), a
// pass plus a tail (5), and a full condexp.BlockSeeds group (8).
var groupWidths = []int{1, 3, 4, 5, 8}

// randomSeeds draws s seeds of fam from src.
func randomSeeds(fam hashfam.Family, src *detrand.Source, s int) [][]uint64 {
	seeds := make([][]uint64, s)
	for i := range seeds {
		seeds[i] = make([]uint64, fam.SeedLen())
		for j := range seeds[i] {
			seeds[i][j] = src.Uint64() % fam.P()
		}
	}
	return seeds
}

// TestEdgeGroupMatchesSel pins EdgeGroup.Eval — the seed-group evaluation
// of the matching search, fused fold pipeline on dense plans and two-pass
// tile + stamped scan on sparse ones — to per-seed EvalKeys +
// LocalMinEdgesSel, and Select at 1 and 8 workers to Eval's E_h for the same
// seed. ONE group runs the whole table, so every plan after the first finds
// it dirty from a plan of a different id space.
func TestEdgeGroupMatchesSel(t *testing.T) {
	var grp EdgeGroup
	var ref EdgeMinScratch
	src := detrand.New(31)
	for _, k := range groupKeyCounts {
		for _, dense := range []bool{true, false} {
			n := k / 2
			if !dense {
				n = 4*k + 1
			}
			g := gen.GNM(n, k, uint64(k))
			fam := PairwiseFamily(n)
			ev := hashfam.NewEvaluator(fam)
			var sel EdgeSel
			EdgeSelInit(&sel, n, g.Edges(), nil, fam.P()-1)
			if len(sel.Keys()) != k || sel.Fold() != dense {
				t.Fatalf("n=%d: %d keys fold=%v, want %d keys fold=%v", n, len(sel.Keys()), sel.Fold(), k, dense)
			}
			z := make([]uint64, k)
			for _, S := range groupWidths {
				label := fmt.Sprintf("k=%d n=%d fold=%v S=%d", k, n, dense, S)
				seeds := randomSeeds(fam, src, S)
				want := make([][]graph.Edge, S)
				for s, seed := range seeds {
					want[s] = append([]graph.Edge(nil), LocalMinEdgesSel(&ref, &sel, ev.EvalKeys(seed, sel.Keys(), z))...)
				}
				var got [][]graph.Edge
				grp.Eval(ev, &sel, seeds, func(s int, eh []graph.Edge) {
					if s != len(got) {
						t.Fatalf("%s: visited seed %d, want %d", label, s, len(got))
					}
					got = append(got, append([]graph.Edge(nil), eh...))
				})
				if len(got) != S {
					t.Fatalf("%s: visited %d seeds", label, len(got))
				}
				for s := range got {
					edgesEqual(t, fmt.Sprintf("%s seed %d", label, s), got[s], want[s])
				}
				for _, workers := range []int{1, 8} {
					edgesEqual(t, fmt.Sprintf("%s Select workers=%d", label, workers),
						grp.Select(ev, &sel, seeds[0], workers), got[0])
				}
			}
		}
	}
}

// TestNodeGroupMatchesSel is TestEdgeGroupMatchesSel for NodeGroup: Eval
// (NodeFold pipeline on dense plans, two-pass tile + stamped scan on sparse
// ones) against per-seed EvalKeys + LocalMinNodesSel, and Select at 1 and 8
// workers against Eval. ONE group and ONE plan run the whole table, as a
// solve reuses them: each key count re-plans over a new id space, then
// re-plans the same id space with a different live set — a generation bump
// whose newly dead slots still hold the previous generation's keys in the
// group's fold tables.
func TestNodeGroupMatchesSel(t *testing.T) {
	var grp NodeGroup
	var sel NodeSel
	src := detrand.New(37)
	for _, k := range groupKeyCounts {
		for _, dense := range []bool{true, false} {
			// Dense plans keep four ids in five live, sparse ones one in five.
			n := k*5/4 + 5
			if !dense {
				n = 5*k + 5
			}
			q := gen.GNM(n, 2*n, uint64(k))
			fam := PairwiseFamily(n)
			ev := hashfam.NewEvaluator(fam)
			keyOf := func(v graph.NodeID) uint64 { return SlotKey(uint64(v), 0, n) }
			z := make([]uint64, k)
			for phase := 0; phase < 2; phase++ {
				ids := make([]graph.NodeID, 0, k)
				for v := 0; len(ids) < k; v++ {
					if (v%5 == phase) != dense {
						ids = append(ids, graph.NodeID(v))
					}
				}
				sel.InitList(n, ids, keyOf, fam.P()-1)
				if sel.Dense() != dense {
					t.Fatalf("n=%d live=%d: dense=%v, want %v", n, k, sel.Dense(), dense)
				}
				for _, S := range groupWidths {
					label := fmt.Sprintf("k=%d n=%d dense=%v phase %d S=%d", k, n, dense, phase, S)
					seeds := randomSeeds(fam, src, S)
					want := make([][]graph.NodeID, S)
					for s, seed := range seeds {
						want[s] = LocalMinNodesSel(nil, q, &sel, ev.EvalKeys(seed, sel.Keys(), z))
					}
					var got [][]graph.NodeID
					grp.Eval(ev, &sel, q, seeds, func(s int, ih []graph.NodeID) {
						if s != len(got) {
							t.Fatalf("%s: visited seed %d, want %d", label, s, len(got))
						}
						got = append(got, append([]graph.NodeID(nil), ih...))
					})
					if len(got) != S {
						t.Fatalf("%s: visited %d seeds", label, len(got))
					}
					for s := range got {
						nodesEqual(t, fmt.Sprintf("%s seed %d", label, s), got[s], want[s])
					}
					for _, workers := range []int{1, 8} {
						nodesEqual(t, fmt.Sprintf("%s Select workers=%d", label, workers),
							grp.Select(nil, ev, &sel, q, seeds[0], workers), got[0])
					}
				}
			}
		}
	}
}
