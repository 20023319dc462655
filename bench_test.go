package repro

// The benchmark harness: one benchmark per reproduction table/figure (see
// the per-experiment index in the internal/experiments package
// documentation). Each benchmark
// times the end-to-end computation behind its experiment at quick scale;
// `go run ./cmd/experiments` regenerates the actual tables.

import (
	"context"
	"io"
	"testing"

	"repro/internal/cclique"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hashfam"
	"repro/internal/lowdeg"
	"repro/internal/luby"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/mpc"
	"repro/internal/simcost"
	"repro/internal/sparsify"
)

func quickCfg() experiments.Config { return experiments.Config{Quick: true, Seed: 1} }

// costModel returns the cost model of a solve of g under p: every solve
// charges one, and its S sets the batch size of the solve's seed searches.
func costModel(g *graph.Graph, p core.Params) *simcost.Model {
	return simcost.New(g.N(), g.M(), p.Epsilon)
}

// BenchmarkT1_MatchingRounds times the Theorem 7 pipeline (deterministic
// maximal matching with full MPC accounting) on the T1 workload.
func BenchmarkT1_MatchingRounds(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := simcost.New(g.N(), g.M(), p.Epsilon)
		matching.Deterministic(g, p, model)
	}
}

// BenchmarkT2_MISRounds times the Theorem 14 pipeline on the T2 workload.
func BenchmarkT2_MISRounds(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := simcost.New(g.N(), g.M(), p.Epsilon)
		mis.Deterministic(g, p, model)
	}
}

// BenchmarkT3_ProgressPerIteration times a single derandomized Luby
// iteration (sparsify + seed search + removal), the unit T3 audits.
func BenchmarkT3_ProgressPerIteration(b *testing.B) {
	g := gen.GNM(1<<12, 16<<12, 1)
	p := core.DefaultParams()
	p.MaxSeedsPerSearch = 1 << 12
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.SparsifyEdges(g, p, costModel(g, p))
	}
}

// BenchmarkT4_SparsifyInvariants times the node sparsification with its
// invariant audit (the T4b path).
func BenchmarkT4_SparsifyInvariants(b *testing.B) {
	g := gen.GNM(1<<11, 48<<11, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.SparsifyNodes(g, p, costModel(g, p))
	}
}

// BenchmarkT5_LowDegreeStages times the Section 5 stage-compressed MIS on a
// bounded-degree workload.
func BenchmarkT5_LowDegreeStages(b *testing.B) {
	g := gen.RandomRegular(1<<12, 8, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowdeg.MIS(g, p, costModel(g, p))
	}
}

// BenchmarkT6_CongestedClique times the Corollary 2 CC MIS with both round
// accountings.
func BenchmarkT6_CongestedClique(b *testing.B) {
	g := gen.RandomRegular(1<<10, 8, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cclique.DetMIS(g, p)
	}
}

// BenchmarkT7_SeedSearch times the deterministic seed search in isolation:
// scoring all 64 candidate seeds of one charged O(1)-round batch of the
// matching-selection objective over a fixed E*, which is what a batch whose
// first candidate misses costs the host. The edge keys and the
// table-discipline decisions are precomputed once per round (core.EdgeSel),
// and every candidate goes through core.EdgeGroup.Select at one worker, as
// the production searches score it: one EvalKeys pass over the keys, then,
// on this fold-eligible E*, a scatter into the endpoint-min table and the
// decode of its mutual argmins.
func BenchmarkT7_SeedSearch(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	sp := sparsify.SparsifyEdges(g, p, costModel(g, p))
	edges := sp.EStar.Edges()
	fam := core.PairwiseFamily(g.N())
	evaluator := hashfam.NewEvaluator(fam)
	n := g.N()
	var sel core.EdgeSel
	core.EdgeSelInit(&sel, n, edges, make([]uint64, 0, len(edges)), fam.P()-1)
	if !sel.Fold() {
		b.Fatal("workload unexpectedly not fold-eligible")
	}
	// Seeds are materialized into a flat buffer per batch exactly as
	// condexp.SearchAtLeast does it.
	const batch = 64
	seedLen := fam.SeedLen()
	seedBuf := make([]uint64, batch*seedLen)
	seeds := make([][]uint64, batch)
	enum := fam.Enumerate()
	for i := 0; i < batch && enum.Next(); i++ {
		s := seedBuf[i*seedLen : (i+1)*seedLen : (i+1)*seedLen]
		copy(s, enum.Seed())
		seeds[i] = s
	}
	var grp core.EdgeGroup
	values := make([]int, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s, seed := range seeds {
			values[s] = len(grp.Select(evaluator, &sel, seed, 1))
		}
	}
}

// BenchmarkT7_SelectionScan isolates the selection term of the seed search
// — the post-hash local-minimum scan that dominated T7 before the
// epoch-stamped tables: 64 LocalMinEdgesSel passes (the EdgeFold path on
// this dense E*) over a fixed E* and z vector on warm scratch.
// bench-compare tracks it alongside BenchmarkT7_SeedSearch so a regression
// in the scan is attributable separately from the hash kernel.
func BenchmarkT7_SelectionScan(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	sp := sparsify.SparsifyEdges(g, p, costModel(g, p))
	edges := sp.EStar.Edges()
	fam := core.PairwiseFamily(g.N())
	evaluator := hashfam.NewEvaluator(fam)
	var sel core.EdgeSel
	keys := core.SlotKeysInto(make([]uint64, 0, len(edges)), edges, 0, g.N())
	core.EdgeSelInit(&sel, g.N(), edges, make([]uint64, 0, len(edges)), fam.P()-1)
	z := make([]uint64, len(edges))
	e := fam.Enumerate()
	e.Next()
	evaluator.EvalKeys(e.Seed(), keys, z)
	var lm core.EdgeMinScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for count := 0; count < 64; count++ {
			core.LocalMinEdgesSel(&lm, &sel, z)
		}
	}
}

// BenchmarkEvalSeedsBlocked times the block-major multi-seed kernel at the
// T7 shape: 64 pairwise seeds over E*'s slot keys in groups of eight, into
// reused scratch rows, each seed through the same pairwise Barrett loop as
// EvalKeys, one key block at a time. The seed searches hash one seed at a
// time through EvalKeys, so this row tracks the kernel that detbench's
// hashfam rows time, not a production path.
func BenchmarkEvalSeedsBlocked(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	sp := sparsify.SparsifyEdges(g, p, costModel(g, p))
	edges := sp.EStar.Edges()
	fam := core.PairwiseFamily(g.N())
	evaluator := hashfam.NewEvaluator(fam)
	keys := core.SlotKeysInto(make([]uint64, 0, len(edges)), edges, 0, g.N())
	const batch = 64
	seedLen := fam.SeedLen()
	seedBuf := make([]uint64, batch*seedLen)
	seeds := make([][]uint64, batch)
	enum := fam.Enumerate()
	for i := 0; i < batch && enum.Next(); i++ {
		s := seedBuf[i*seedLen : (i+1)*seedLen : (i+1)*seedLen]
		copy(s, enum.Seed())
		seeds[i] = s
	}
	const group = 8
	rows := make([][]uint64, group)
	for s := range rows {
		rows[s] = make([]uint64, len(keys))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < batch; lo += group {
			evaluator.EvalSeedsBlocked(seeds[lo:lo+group], keys, rows)
		}
	}
}

// BenchmarkT7_NodeSelectionScan isolates the node-side selection term of the
// seed searches (the scan the MIS and lowdeg objectives run per candidate
// seed): 64 selections over a fixed live set and z vector on warm scratch,
// through the production LocalMinNodesSelIn entry — which on this dense
// round takes the NodeFold flat-table path (round-wiped tables, one-word
// neighbour probes). bench-compare tracks it alongside
// BenchmarkT7_SelectionScan so the node and edge scan disciplines are
// attributable separately.
func BenchmarkT7_NodeSelectionScan(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	n := g.N()
	fam := core.PairwiseFamily(n)
	evaluator := hashfam.NewEvaluator(fam)
	inQ := make([]bool, n)
	for v := range inQ {
		inQ[v] = true
	}
	var sel core.NodeSel
	sel.Init(n, inQ, func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }, fam.P()-1)
	if 4*len(sel.Live()) < n {
		b.Fatal("workload below the dense gate, n <= 4|live|")
	}
	z := make([]uint64, len(sel.Keys()))
	e := fam.Enumerate()
	e.Next()
	evaluator.EvalKeys(e.Seed(), sel.Keys(), z)
	var nf core.NodeFold
	var dst []graph.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for count := 0; count < 64; count++ {
			dst = core.LocalMinNodesSelIn(&nf, dst, g, &sel, z)
		}
	}
}

// BenchmarkLocalMinNodesSel times one selection pass per discipline on the
// T7 workload: Dense runs the NodeFold flat-table path over a fully live
// round, Sparse the epoch-stamped scan over a 1/8-density live set (below
// the Dense gate), both through the production LocalMinNodesSelIn dispatch.
// DenseStamped forces the SAME fully-live round through the epoch-stamped
// LocalMinNodesSel entry, so the flat-table rebuild's speedup on dense
// rounds (Dense vs DenseStamped) stays measured in every saved baseline.
func BenchmarkLocalMinNodesSel(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	n := g.N()
	fam := core.PairwiseFamily(n)
	evaluator := hashfam.NewEvaluator(fam)
	run := func(b *testing.B, keep func(v int) bool, wantDense bool) {
		inQ := make([]bool, n)
		for v := range inQ {
			inQ[v] = keep(v)
		}
		var sel core.NodeSel
		sel.Init(n, inQ, func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }, fam.P()-1)
		if dense := n <= 4*len(sel.Live()); dense != wantDense {
			b.Fatalf("dense gate n <= 4|live| = %v, want %v", dense, wantDense)
		}
		z := make([]uint64, len(sel.Keys()))
		e := fam.Enumerate()
		e.Next()
		evaluator.EvalKeys(e.Seed(), sel.Keys(), z)
		var nf core.NodeFold
		var dst []graph.NodeID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = core.LocalMinNodesSelIn(&nf, dst, g, &sel, z)
		}
	}
	b.Run("Dense", func(b *testing.B) { run(b, func(v int) bool { return true }, true) })
	b.Run("Sparse", func(b *testing.B) { run(b, func(v int) bool { return v%8 == 0 }, false) })
	b.Run("DenseStamped", func(b *testing.B) {
		inQ := make([]bool, n)
		for v := range inQ {
			inQ[v] = true
		}
		var sel core.NodeSel
		sel.Init(n, inQ, func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }, fam.P()-1)
		z := make([]uint64, len(sel.Keys()))
		e := fam.Enumerate()
		e.Next()
		evaluator.EvalKeys(e.Seed(), sel.Keys(), z)
		var dst []graph.NodeID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = core.LocalMinNodesSel(dst, g, &sel, z)
		}
	})
}

// BenchmarkT8_Lemma4Primitives times the message-level sample sort plus
// prefix sums at the T8 grid's middle point.
func BenchmarkT8_Lemma4Primitives(b *testing.B) {
	r := detrand.New(1)
	data := make([]uint64, 1<<14)
	for i := range data {
		data[i] = r.Uint64() % 1_000_000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(mpc.Config{Machines: 32, Space: 1 << 11})
		if err := c.LoadBalanced(data); err != nil {
			b.Fatal(err)
		}
		if err := mpc.Sort(c); err != nil {
			b.Fatal(err)
		}
		if _, err := mpc.PrefixSum(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT9_SpaceAblation times the edge sparsification plus the 2-hop
// ball measurement that the ablation compares.
func BenchmarkT9_SpaceAblation(b *testing.B) {
	g := gen.GNM(1<<11, 24<<11, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		er := sparsify.SparsifyEdges(g, p, costModel(g, p))
		var bs graph.BallScratch
		for v := 0; v < er.EStar.N(); v++ {
			er.EStar.BallUnsortedInto(&bs, graph.NodeID(v), 2)
		}
	}
}

// BenchmarkF1_EdgeDecay times one deterministic and one randomized full run
// (the two curves of F1).
func BenchmarkF1_EdgeDecay(b *testing.B) {
	g := gen.GNM(1<<11, 8<<11, 1)
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis.Deterministic(g, p, costModel(g, p))
		luby.MIS(g, detrand.New(1))
	}
}

// BenchmarkF2_RoundScaling times the full F2 figure generation at quick
// scale (the n-sweep and Δ-sweep).
func BenchmarkF2_RoundScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("F2", quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations_SlackSweep times the A4 ablation's unit: one edge
// sparsification under the strictest (slack = 1) goodness predicates,
// which exercises the deep-scan path of the seed search.
func BenchmarkAblations_SlackSweep(b *testing.B) {
	g := gen.GNM(1<<11, 24<<11, 1)
	p := core.DefaultParams()
	p.Slack = 1
	p.MaxSeedsPerSearch = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.SparsifyEdges(g, p, costModel(g, p))
	}
}

// The *Serial / *Parallel benchmark pairs below time identical computations
// with the shared execution pool (internal/parallel) pinned to one worker vs
// one worker per logical CPU: the benchmark form of ROADMAP item 7's table.
// Outputs are bit-identical by the determinism contract, so any delta is
// pure wall-clock time; CI's benchmark smoke job records both sides as a
// JSON artifact (cmd/benchjson). Every call whose work is below the pool's
// serial cutoff (parallel.SerialWork) runs on the calling goroutine on both
// sides, so at the sparsify shapes (n = 4096, avg degree 16) both sides run
// one path and should time alike. The sides differ where calls exceed the
// cutoff: the Section 5 preprocessing of the lowdeg pair, the first rounds
// of the seed-search pair (avg degree 32), and the rebuilds of the
// WithoutNodes, LubyMIS and MPCRoundFanout pairs.

// BenchmarkMatchingDeterministicSerial times the Theorem 7 pipeline with the
// pool pinned to a single worker.
func BenchmarkMatchingDeterministicSerial(b *testing.B) {
	benchMatchingDeterministic(b, 1)
}

// BenchmarkMatchingDeterministicParallel is the same pipeline with one
// worker per logical CPU (Parallelism = 0, auto).
func BenchmarkMatchingDeterministicParallel(b *testing.B) {
	benchMatchingDeterministic(b, 0)
}

func benchMatchingDeterministic(b *testing.B, parallelism int) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	p.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.Deterministic(g, p, costModel(g, p))
	}
}

// BenchmarkMISDeterministicSerial times the Theorem 14 pipeline with the
// pool pinned to a single worker.
func BenchmarkMISDeterministicSerial(b *testing.B) { benchMISDeterministic(b, 1) }

// BenchmarkMISDeterministicParallel is the same pipeline at GOMAXPROCS
// workers.
func BenchmarkMISDeterministicParallel(b *testing.B) { benchMISDeterministic(b, 0) }

func benchMISDeterministic(b *testing.B, parallelism int) {
	g := gen.GNM(1<<12, 8<<12, 1)
	p := core.DefaultParams()
	p.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis.Deterministic(g, p, costModel(g, p))
	}
}

// BenchmarkSparsifySeedSearchSerial times the Section 3.2 edge
// sparsification — dominated by the condexp seed search — on one worker.
func BenchmarkSparsifySeedSearchSerial(b *testing.B) { benchSparsifySeedSearch(b, 1) }

// BenchmarkSparsifySeedSearchParallel is the same sparsification at
// GOMAXPROCS workers. The stage searches score their candidates serially
// either way; the workers hash each stage's items again only when its
// search finds no all-good seed, and run the rest of the stage chain.
func BenchmarkSparsifySeedSearchParallel(b *testing.B) { benchSparsifySeedSearch(b, 0) }

func benchSparsifySeedSearch(b *testing.B, parallelism int) {
	g := gen.GNM(1<<12, 16<<12, 1)
	p := core.DefaultParams()
	p.Parallelism = parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsify.SparsifyEdges(g, p, costModel(g, p))
	}
}

// BenchmarkLowDegreeMatchingSerial times a warm-Engine Section 5 matching
// (MIS on the line graph, Linial colouring and r-ball walk included) on a
// 64x64 grid, with the pool pinned to one worker.
func BenchmarkLowDegreeMatchingSerial(b *testing.B) { benchLowDegreeMatching(b, 1) }

// BenchmarkLowDegreeMatchingParallel is the same solve at GOMAXPROCS
// workers.
func BenchmarkLowDegreeMatchingParallel(b *testing.B) { benchLowDegreeMatching(b, 0) }

func benchLowDegreeMatching(b *testing.B, parallelism int) {
	g, err := Generate("grid", 1<<12, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(&Options{Strategy: StrategyLowDegree, Parallelism: parallelism})
	if _, err := eng.MaximalMatching(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.MaximalMatching(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWithoutNodesSerial times the CSR node-removal filter (the inner
// rebuild of every Luby-style iteration) on one worker.
func BenchmarkWithoutNodesSerial(b *testing.B) { benchWithoutNodes(b, 1) }

// BenchmarkWithoutNodesParallel shards the same rebuild over the pool.
func BenchmarkWithoutNodesParallel(b *testing.B) { benchWithoutNodes(b, 0) }

func benchWithoutNodes(b *testing.B, workers int) {
	g := gen.GNM(1<<16, 1<<19, 1)
	remove := make([]bool, g.N())
	for v := range remove {
		remove[v] = v%3 == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.WithoutNodesW(remove, workers)
	}
}

// BenchmarkLubyMISSerial times the randomized baseline (serial z-vector
// selection kernel) with the per-round graph rebuild on one worker.
func BenchmarkLubyMISSerial(b *testing.B) { benchLubyMIS(b, 1) }

// BenchmarkLubyMISParallel is the same baseline with the rebuild across the
// pool (selection itself is serial since the kernel rewrite).
func BenchmarkLubyMISParallel(b *testing.B) { benchLubyMIS(b, 0) }

func benchLubyMIS(b *testing.B, workers int) {
	g := gen.GNM(1<<14, 1<<17, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		luby.MISW(g, detrand.New(1), workers)
	}
}

// BenchmarkMPCRoundFanoutSerial times the message-level simulator's
// machine-step fan-out (sample sort + prefix sums) on one worker.
func BenchmarkMPCRoundFanoutSerial(b *testing.B) { benchMPCRoundFanout(b, 1) }

// BenchmarkMPCRoundFanoutParallel runs machine steps across the pool.
func BenchmarkMPCRoundFanoutParallel(b *testing.B) { benchMPCRoundFanout(b, 0) }

func benchMPCRoundFanout(b *testing.B, workers int) {
	r := detrand.New(1)
	data := make([]uint64, 1<<14)
	for i := range data {
		data[i] = r.Uint64() % 1_000_000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(mpc.Config{Machines: 32, Space: 1 << 11, Workers: workers})
		if err := c.LoadBalanced(data); err != nil {
			b.Fatal(err)
		}
		if err := mpc.Sort(c); err != nil {
			b.Fatal(err)
		}
		if _, err := mpc.PrefixSum(c); err != nil {
			b.Fatal(err)
		}
	}
}

// The BenchmarkEngine* group measures the reusable-solver layer: the
// *Reuse benchmarks solve on a warm Engine (steady-state of a server
// handling repeated traffic — allocation-flat by the scratch arenas and CSR
// double-buffers), while the *OneShot pairs run the free-function wrapper,
// which pays the full working-set allocation every call. Run with -benchmem
// (the Makefile bench targets do) so CI archives B/op and allocs/op; the
// delta between each pair is the allocation bill the Engine amortises.

// BenchmarkEngineReuseMatching times a warm-Engine matching re-solve.
func BenchmarkEngineReuseMatching(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	eng := NewEngine(&Options{Strategy: StrategySparsify})
	if _, err := eng.MaximalMatching(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.MaximalMatching(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOneShotMatching is the free-function counterpart of
// BenchmarkEngineReuseMatching (fresh scratch every call).
func BenchmarkEngineOneShotMatching(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximalMatching(g, &Options{Strategy: StrategySparsify}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuseMIS times a warm-Engine MIS re-solve.
func BenchmarkEngineReuseMIS(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	eng := NewEngine(&Options{Strategy: StrategySparsify})
	if _, err := eng.MaximalIndependentSet(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.MaximalIndependentSet(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuseLowDegree times warm-Engine re-solves down the
// Section 5 path on the shapes of detbench's inproc-lowdeg workload: a
// matching and an MIS on a 64x64 grid and on a 3-regular graph, n = 4096.
// A matching solves MIS on the line graph, so both the G² colouring's
// Linial rounds and the r-ball walk run on every solve. It backs make
// profile's lowdeg.pprof.
func BenchmarkEngineReuseLowDegree(b *testing.B) {
	var graphs []*Graph
	for _, f := range []struct {
		family string
		avg    int
	}{{"grid", 4}, {"regular", 3}} {
		g, err := Generate(f.family, 1<<12, f.avg, 1)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	eng := NewEngine(&Options{Strategy: StrategyLowDegree})
	solve := func() {
		for _, g := range graphs {
			if _, err := eng.MaximalMatching(g); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.MaximalIndependentSet(g); err != nil {
				b.Fatal(err)
			}
		}
	}
	solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

// roundCounter is an Observer that counts rounds: the solves build and
// emit their round events, as they do for detbench's observer, at almost
// no cost of its own.
type roundCounter struct{ rounds int }

func (c *roundCounter) OnRound(RoundEvent) { c.rounds++ }

// BenchmarkEngineReuseSparsify times warm-Engine re-solves on the shapes of
// detbench's inproc-sparsify workload: a matching and an MIS on each of the
// G(n,m) graphs Generate("gnm", 4096, 16, s), s = 1..4, with a counting
// observer attached, as detbench solves them. Unlike a fresh-scratch solve
// it pays no scratch allocation or zeroing, which no warm solve pays. It backs make profile's sparsify.pprof.
func BenchmarkEngineReuseSparsify(b *testing.B) {
	var graphs []*Graph
	for s := uint64(1); s <= 4; s++ {
		g, err := Generate("gnm", 1<<12, 16, s)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	eng := NewEngine(&Options{Strategy: StrategySparsify})
	var obs roundCounter
	ctx := context.Background()
	solve := func() {
		for _, g := range graphs {
			if _, err := eng.MaximalMatchingCtx(ctx, g, WithObserver(&obs)); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.MaximalIndependentSetCtx(ctx, g, WithObserver(&obs)); err != nil {
				b.Fatal(err)
			}
		}
	}
	solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

// BenchmarkEngineOneShotMIS is the free-function counterpart of
// BenchmarkEngineReuseMIS.
func BenchmarkEngineOneShotMIS(b *testing.B) {
	g := gen.GNM(1<<12, 8<<12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximalIndependentSet(g, &Options{Strategy: StrategySparsify}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI_MIS times the façade end to end (what a downstream
// user calls).
func BenchmarkPublicAPI_MIS(b *testing.B) {
	g, err := Generate("powerlaw", 1<<12, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaximalIndependentSet(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = io.Discard
