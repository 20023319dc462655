package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/condexp"
	"repro/internal/detrand"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
	"repro/internal/parallel"
	"repro/internal/simcost"
)

// groupKeyCounts straddle hashfam.BlockKeyGrain — one ragged block, one
// exact block, a full block plus a one-key tail — then span several blocks,
// and finally pass EvalKeysW's serial cutoff (parallel.SerialWork/2
// pairwise keys) so Select's sharded hashing runs too.
var groupKeyCounts = []int{511, 512, 513, 1500, parallel.SerialWork/2 + 500}

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

// TestSeedSearchMissPath drives the miss path of Params.SeedSearch, which
// no production search takes on the golden corpus: the threshold is
// unreachable, so every candidate of every batch is scored, each through
// one group's Select at one worker as the round loops score. Over a dense
// and a sparse round of each selection kind, and three full batches, the
// search must report a three-batch miss with one batch stat per batch,
// every candidate must be scored exactly once, and its value must equal an
// EvalKeys + LocalMin*Sel reference.
func TestSeedSearchMissPath(t *testing.T) {
	const batches, batchSize = 3, 64 // S of a model of n = 4096 at ε = 0.5
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
		grp := new(EdgeGroup)
		var lm EdgeMinScratch
		rounds = append(rounds, round{
			name: fmt.Sprintf("edges/dense=%v", dense),
			fam:  fam,
			score: func(seed []uint64) int64 {
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
		grp := new(NodeGroup)
		rounds = append(rounds, round{
			name: fmt.Sprintf("nodes/dense=%v", dense),
			fam:  fam,
			score: func(seed []uint64) int64 {
				return value(grp.Select(nil, ev, sel, q, seed, 1))
			},
			ref: func(seed []uint64) int64 {
				return value(LocalMinNodesSel(nil, q, sel, ev.EvalKeys(seed, sel.Keys(), make([]uint64, len(sel.Keys())))))
			},
		})
	}

	for _, r := range rounds {
		// The reference: every candidate of the three batches, in
		// enumeration order.
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

		p := DefaultParams()
		p.MaxSeedsPerSearch = batches * batchSize
		got := make([]int64, len(seeds))
		scored := make([]int, len(seeds))
		var stats []SeedBatchStat
		res := p.SeedSearch(r.fam, func(seed []uint64) int64 {
			i := pos[fmt.Sprint(seed)]
			got[i] = r.score(seed)
			scored[i]++
			return got[i]
		}, unreachable, "test.seed", simcost.New(1<<12, 0, p.Epsilon), &stats)
		if res.Found || res.Batches != batches || res.SeedsTried != len(seeds) || len(stats) != batches {
			t.Fatalf("%s: %+v with %d batch stats, want a %d-batch miss", r.name, res, len(stats), batches)
		}
		for i := range seeds {
			if scored[i] != 1 || got[i] != want[i] {
				t.Fatalf("%s: candidate %d scored %d times, value %d, want once with %d", r.name, i, scored[i], got[i], want[i])
			}
		}
	}
}

// TestSeedSearchBatchesByModelS pins Params.SeedSearch's batches to its
// model, at n = 256, 625 and 4096 (ε = 0.5: S = 16, 25 and 64): a search
// that misses scores all MaxSeedsPerSearch = 300 candidates in batches of
// S, the last one shorter, and one that qualifies at the 40th candidate
// charges that candidate's whole batch. The model charges exactly the
// search's Batches and SeedsTried, and batch stats are collected only when
// asked for: one per charged batch, with the result unchanged.
func TestSeedSearchBatchesByModelS(t *testing.T) {
	fam := hashfam.New(101, 2)
	const maxSeeds, winner = 300, 40
	for _, tc := range []struct{ n, s int }{{256, 16}, {625, 25}, {4096, 64}} {
		for _, found := range []bool{false, true} {
			name := fmt.Sprintf("S=%d/found=%v", tc.s, found)
			p := DefaultParams()
			p.MaxSeedsPerSearch = maxSeeds
			// calls counts the candidates scored, so one search's objective
			// qualifies exactly at its winner-th candidate.
			calls := 0
			obj := func([]uint64) int64 {
				calls++
				if found && calls == winner {
					return 1
				}
				return 0
			}
			search := func(stats *[]SeedBatchStat) (condexp.Result, simcost.Stats) {
				calls = 0
				model := simcost.New(tc.n, 0, p.Epsilon)
				if model.S() != tc.s {
					t.Fatalf("%s: model S = %d", name, model.S())
				}
				return p.SeedSearch(fam, obj, 1, "test.seed", model, stats), model.Stats()
			}

			res, st := search(nil)
			tried := maxSeeds
			if found {
				tried = (winner + tc.s - 1) / tc.s * tc.s
			}
			if res.Found != found || res.SeedsTried != tried || res.Batches != (tried+tc.s-1)/tc.s {
				t.Fatalf("%s: Found=%v after %d seeds in %d batches, want Found=%v after %d in batches of %d",
					name, res.Found, res.SeedsTried, res.Batches, found, tried, tc.s)
			}
			if st.SeedBatches != res.Batches || st.SeedsEvaluated != int64(res.SeedsTried) {
				t.Fatalf("%s: model charged %d batches and %d seeds, search %d and %d",
					name, st.SeedBatches, st.SeedsEvaluated, res.Batches, res.SeedsTried)
			}

			var stats []SeedBatchStat
			observed, _ := search(&stats)
			if !reflect.DeepEqual(observed, res) {
				t.Fatalf("%s: collecting stats changed the result: %+v, want %+v", name, observed, res)
			}
			if len(stats) != res.Batches {
				t.Fatalf("%s: %d batch stats for %d batches", name, len(stats), res.Batches)
			}
			for i, b := range stats {
				want := min(tc.s, tried-i*tc.s)
				if b.Batch != i+1 || b.Seeds != want || b.SeedsTried != min(tried, (i+1)*tc.s) {
					t.Fatalf("%s: batch stat %d = %+v, want %d seeds", name, i, b, want)
				}
			}
		}
	}
}

// TestMISNodesMatchesMasks runs MISNodes through whole MIS loops on random
// graphs, against an alive mask and an in-set mask kept here: every round
// joins the isolated live nodes, then peels a random independent set of
// the live nodes, in random order, and deletes ih ∪ N(ih) from the graph.
// After every JoinIsolated and Peel, Live() must be the ascending alive
// set and Set() the ascending in-set, JoinIsolated must count the nodes it
// joined, and remove must mark exactly ih ∪ N(ih).
func TestMISNodesMatchesMasks(t *testing.T) {
	src := detrand.New(7)
	for _, tc := range []struct{ n, m int }{{0, 0}, {1, 0}, {2, 1}, {40, 0}, {64, 80}, {300, 1200}, {500, 6000}} {
		g := gen.GNM(tc.n, tc.m, uint64(tc.n+tc.m))
		nodes := NewMISNodes(tc.n)
		alive, in := make([]bool, tc.n), make([]bool, tc.n)
		for v := range alive {
			alive[v] = true
		}
		check := func(round int, step string) {
			t.Helper()
			var wantLive, wantSet []graph.NodeID
			for v := range alive {
				if alive[v] {
					wantLive = append(wantLive, graph.NodeID(v))
				}
				if in[v] {
					wantSet = append(wantSet, graph.NodeID(v))
				}
			}
			if !slices.Equal(nodes.Live(), wantLive) {
				t.Fatalf("n=%d m=%d round %d after %s: Live() = %v, want %v", tc.n, tc.m, round, step, nodes.Live(), wantLive)
			}
			if !slices.Equal(nodes.Set(), wantSet) {
				t.Fatalf("n=%d m=%d round %d after %s: Set() = %v, want %v", tc.n, tc.m, round, step, nodes.Set(), wantSet)
			}
		}
		cur := g
		for round := 1; ; round++ {
			wantJoined := 0
			for v := range alive {
				if alive[v] && cur.Degree(graph.NodeID(v)) == 0 {
					alive[v], in[v] = false, true
					wantJoined++
				}
			}
			if joined := nodes.JoinIsolated(cur); joined != wantJoined {
				t.Fatalf("n=%d m=%d round %d: JoinIsolated joined %d, want %d", tc.n, tc.m, round, joined, wantJoined)
			}
			check(round, "JoinIsolated")
			if cur.M() == 0 {
				break
			}
			// A random independent set of the live nodes, never empty, in
			// random order.
			var ih []graph.NodeID
			taken := make([]bool, tc.n)
			live := nodes.Live()
			for i, k := range src.Perm(len(live)) {
				v := live[k]
				if taken[v] || (i > 0 && src.Intn(2) == 0) {
					continue
				}
				ih = append(ih, v)
				taken[v] = true
				for _, u := range cur.Neighbors(v) {
					taken[u] = true
				}
			}
			want := make([]bool, tc.n)
			for _, v := range ih {
				in[v], want[v] = true, true
				for _, u := range cur.Neighbors(v) {
					want[u] = true
				}
			}
			for v := range alive {
				alive[v] = alive[v] && !want[v]
			}
			remove := make([]bool, tc.n)
			nodes.Peel(cur, ih, remove)
			if !slices.Equal(remove, want) {
				t.Fatalf("n=%d m=%d round %d: Peel marked %v, want ih ∪ N(ih) = %v", tc.n, tc.m, round, remove, want)
			}
			check(round, "Peel")
			cur = cur.WithoutNodes(remove)
		}
	}
}
