package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/condexp"
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

// groupSeeds is the number of seeds each plan of the group tables selects
// with, back to back on the same dirty group.
const groupSeeds = 3

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

// TestEdgeGroupMatchesSel pins EdgeGroup.Select — the edge selection every
// candidate seed is scored through and the chosen seed applied through — to
// per-seed EvalKeys + LocalMinEdgesSel at 1 and 8 workers, on dense (fold)
// and sparse (epoch-stamped) plans. ONE group runs the whole table, so every
// plan after the first finds it dirty from a plan of a different id space,
// and every seed after a plan's first finds it dirty from the previous seed.
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
			for s, seed := range randomSeeds(fam, src, groupSeeds) {
				want := append([]graph.Edge(nil), LocalMinEdgesSel(&ref, &sel, ev.EvalKeys(seed, sel.Keys(), z))...)
				for _, workers := range []int{1, 8} {
					edgesEqual(t, fmt.Sprintf("k=%d n=%d fold=%v seed %d workers=%d", k, n, dense, s, workers),
						grp.Select(ev, &sel, seed, workers), want)
				}
			}
		}
	}
}

// TestNodeGroupMatchesSel is TestEdgeGroupMatchesSel for NodeGroup.Select:
// per-seed EvalKeys + LocalMinNodesSel at 1 and 8 workers, on dense
// (NodeFold) and sparse (epoch-stamped) plans. ONE group and ONE plan run
// the whole table, as a solve reuses them: each key count re-plans over a
// new id space, then re-plans the same id space with a different live set —
// a generation bump whose newly dead slots still hold the previous
// generation's keys in the group's fold table.
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
				for s, seed := range randomSeeds(fam, src, groupSeeds) {
					want := LocalMinNodesSel(nil, q, &sel, ev.EvalKeys(seed, sel.Keys(), z))
					for _, workers := range []int{1, 8} {
						nodesEqual(t, fmt.Sprintf("k=%d n=%d dense=%v phase %d seed %d workers=%d", k, n, dense, phase, s, workers),
							grp.Select(nil, ev, &sel, q, seed, workers), want)
					}
				}
			}
		}
	}
}

// selectionHash folds a selection into a non-negative objective value that
// changes with any edge or node it selects, so a search over it can only
// agree with its reference if every candidate's selection does.
func selectionHash(ids []uint64) int64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h = (h ^ id) * 1099511628211
	}
	return int64(h >> 2)
}

// TestSeedSearchMissFanOut drives the miss path of Params.SeedSearch, which
// no production search takes on the golden corpus: the threshold is
// unreachable, so every batch's probe misses and the other candidates fan
// out over the workers, each scored through a pooled group's Select at one
// worker as the round loops score. Over a dense and a sparse round of each
// selection kind, and three full batches, the Result and the OnBatch stream
// must be the same at Parallelism 1, 2 and 8, every candidate must be scored
// exactly once, and its value must equal a serial EvalKeys + LocalMin*Sel
// reference.
func TestSeedSearchMissFanOut(t *testing.T) {
	const batches, batchSize = 3, 64 // SeedSearch's default batch without a model
	const unreachable = int64(1) << 62
	type round struct {
		name string
		fam  hashfam.Family
		// score is the objective under test; ref is its serial reference.
		score, ref func(seed []uint64) int64
	}
	var rounds []round
	for _, dense := range []bool{true, false} {
		k := 700
		n := k / 2
		if !dense {
			n = 4*k + 1
		}
		g := gen.GNM(n, k, 41)
		fam := PairwiseFamily(n)
		ev := hashfam.NewEvaluator(fam)
		sel := new(EdgeSel)
		EdgeSelInit(sel, n, g.Edges(), nil, fam.P()-1)
		if sel.Fold() != dense {
			t.Fatalf("edge round n=%d: fold=%v, want %v", n, sel.Fold(), dense)
		}
		value := func(eh []graph.Edge) int64 {
			ids := make([]uint64, len(eh))
			for i, e := range eh {
				ids[i] = e.Key(n)
			}
			return selectionHash(ids)
		}
		pool := sync.Pool{New: func() any { return new(EdgeGroup) }}
		var lm EdgeMinScratch
		rounds = append(rounds, round{
			name: fmt.Sprintf("edges/dense=%v", dense),
			fam:  fam,
			score: func(seed []uint64) int64 {
				grp := pool.Get().(*EdgeGroup)
				defer pool.Put(grp)
				return value(grp.Select(ev, sel, seed, 1))
			},
			ref: func(seed []uint64) int64 {
				return value(LocalMinEdgesSel(&lm, sel, ev.EvalKeys(seed, sel.Keys(), make([]uint64, k))))
			},
		})
	}
	for _, dense := range []bool{true, false} {
		n := 900
		q := gen.GNM(n, 2*n, 43)
		fam := PairwiseFamily(n)
		ev := hashfam.NewEvaluator(fam)
		sel := new(NodeSel)
		inQ := make([]bool, n)
		for v := range inQ {
			inQ[v] = (v%5 != 0) == dense
		}
		sel.Init(n, inQ, func(v graph.NodeID) uint64 { return SlotKey(uint64(v), 0, n) }, fam.P()-1)
		if sel.Dense() != dense {
			t.Fatalf("node round: dense=%v, want %v", sel.Dense(), dense)
		}
		value := func(ih []graph.NodeID) int64 {
			ids := make([]uint64, len(ih))
			for i, v := range ih {
				ids[i] = uint64(v)
			}
			return selectionHash(ids)
		}
		pool := sync.Pool{New: func() any { return new(NodeGroup) }}
		rounds = append(rounds, round{
			name: fmt.Sprintf("nodes/dense=%v", dense),
			fam:  fam,
			score: func(seed []uint64) int64 {
				grp := pool.Get().(*NodeGroup)
				defer pool.Put(grp)
				return value(grp.Select(nil, ev, sel, q, seed, 1))
			},
			ref: func(seed []uint64) int64 {
				return value(LocalMinNodesSel(nil, q, sel, ev.EvalKeys(seed, sel.Keys(), make([]uint64, len(sel.Keys())))))
			},
		})
	}

	for _, r := range rounds {
		// The reference: every candidate of the three batches, in
		// enumeration order, scored serially.
		var seeds [][]uint64
		pos := make(map[string]int)
		e := r.fam.Enumerate()
		for len(seeds) < batches*batchSize && e.Next() {
			pos[fmt.Sprint(e.Seed())] = len(seeds)
			seeds = append(seeds, append([]uint64(nil), e.Seed()...))
		}
		want := make([]int64, len(seeds))
		for i, seed := range seeds {
			want[i] = r.ref(seed)
		}

		var firstRes condexp.Result
		var firstStats []SeedBatchStat
		for _, par := range []int{1, 2, 8} {
			p := DefaultParams()
			p.Parallelism = par
			p.MaxSeedsPerSearch = batches * batchSize
			p.Observe = func(RoundEvent) {}
			// Concurrent calls score distinct candidates, so they write
			// distinct slots.
			got := make([]int64, len(seeds))
			scored := make([]int, len(seeds))
			res, stats := p.SeedSearch(r.fam, func(seed []uint64) int64 {
				i := pos[fmt.Sprint(seed)]
				got[i] = r.score(seed)
				scored[i]++
				return got[i]
			}, unreachable, "test.seed", nil)
			label := fmt.Sprintf("%s Parallelism=%d", r.name, par)
			if res.Found || res.Batches != batches || res.SeedsTried != len(seeds) {
				t.Fatalf("%s: %+v, want a %d-batch miss", label, res, batches)
			}
			for i := range seeds {
				if scored[i] != 1 || got[i] != want[i] {
					t.Fatalf("%s: candidate %d scored %d times, value %d, want once with %d", label, i, scored[i], got[i], want[i])
				}
			}
			if par == 1 {
				firstRes, firstStats = res, stats
			} else if !reflect.DeepEqual(res, firstRes) || !reflect.DeepEqual(stats, firstStats) {
				t.Fatalf("%s: search %+v, batches %+v\nwant (Parallelism 1) %+v, batches %+v", label, res, stats, firstRes, firstStats)
			}
		}
	}
}
