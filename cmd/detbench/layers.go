package main

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/scratch"
	"repro/internal/serve"
	"repro/internal/simcost"
	"repro/internal/sparsify"
)

// replayer times calls into one layer's public functions on the workload's
// own inputs, one span per call.
type replayer struct {
	tr  *tracer
	res *result
}

// run calls fn(i) round robin over k inputs, three times per input and for
// at least 200 ms (stopping at 1000 calls), and returns each input's median
// call time in ns. The extremes over all calls go to the result's detail.
func (r *replayer) run(name string, k int, fn func(i int)) []float64 {
	times := make([][]float64, k)
	lo, hi := math.Inf(1), 0.0
	start := time.Now()
	for calls := 0; calls < 3*k || (time.Since(start) < 200*time.Millisecond && calls < 1000); calls++ {
		i := calls % k
		t0 := time.Now()
		fn(i)
		t1 := time.Now()
		d := float64(t1.Sub(t0))
		times[i] = append(times[i], d)
		lo, hi = min(lo, d), max(hi, d)
		r.tr.add(0, calls, "replay."+name, t0, t1, map[string]float64{"input": float64(i)}, nil)
	}
	r.res.note("replay."+name+".min_ms", lo/1e6, "ms")
	r.res.note("replay."+name+".max_ms", hi/1e6, "ms")
	meds := make([]float64, k)
	for i, ts := range times {
		meds[i] = median(ts)
	}
	return meds
}

// perUnit averages over inputs each input's median divided by its unit
// count, then divides by scale (1 for ns, 1e3 for us, 1e6 for ms).
func perUnit(meds []float64, units func(i int) float64, scale float64) float64 {
	sum := 0.0
	for i, m := range meds {
		sum += per(m, units(i))
	}
	return per(sum, float64(len(meds))) / scale
}

func one(int) float64 { return 1 }

// Sinks keep replayed results live so no call can be optimised away.
var (
	sinkGraph *repro.Graph
	sinkU64   uint64
	sinkAny   any
)

// setServe fills the serving-layer metrics from one served pass: the live
// window of a served workload, or the in-process replay of another.
func setServe(res *result, rp *replayer, m *measured) {
	var over []float64
	var reqB, respB, lines float64
	var okN, nonStream, streams int
	var bodies [][]byte
	var resps []*serve.SolveResponse
	for _, o := range m.win {
		reqB += float64(o.reqBytes)
		if len(bodies) < 8 {
			bodies = append(bodies, m.c.body(o.req))
		}
		if !o.ok() {
			continue
		}
		okN++
		if o.req.stream {
			streams++
			lines += float64(len(o.rounds))
			continue
		}
		nonStream++
		over = append(over, ms(o.latency)-o.serverMS)
		respB += float64(o.respBytes)
		if o.resp != nil && len(resps) < 8 {
			resps = append(resps, o.resp)
		}
	}
	slices.Sort(over)
	res.set("serve.overhead_p50_ms", quantile(over, 0.5))
	res.set("serve.overhead_p90_ms", quantile(over, 0.9))
	res.note("samples.serve_overhead", float64(len(over)), "count")
	res.set("serve.request_kb", per(reqB, float64(len(m.win)))/1024)
	res.set("serve.response_kb", per(respB, float64(nonStream))/1024)
	res.set("serve.completed_ratio", per(float64(m.after.completed-m.before.completed), float64(okN)))
	res.set("serve.rejected", float64(m.after.rejected-m.before.rejected))
	res.set("serve.prepared_graphs", float64(m.after.prepared))
	res.set("serve.round_lines_per_stream", per(lines, float64(streams)))

	dec := rp.run("serve.decode", len(bodies), func(i int) {
		var req serve.SolveRequest
		sinkAny = json.Unmarshal(bodies[i], &req)
	})
	res.set("serve.decode_us_per_kb", perUnit(dec, func(i int) float64 { return float64(len(bodies[i])) / 1024 }, 1e3))
	encLen := make([]float64, len(resps))
	enc := rp.run("serve.encode", len(resps), func(i int) {
		b, _ := json.Marshal(resps[i]) // a decoded response always re-encodes
		encLen[i] = float64(len(b))
	})
	res.set("serve.encode_us_per_kb", perUnit(enc, func(i int) float64 { return encLen[i] / 1024 }, 1e3))
}

// setReplays fills the per-layer metrics measured by replaying layer calls
// on the workload's first replayGraphs graphs. eng is the warm reference
// engine; the allocation replay's solves are checked and tallied.
func setReplays(res *result, rp *replayer, in *inputs, eng *repro.Engine) error {
	gs := in.graphs[:min(replayGraphs, len(in.graphs))]
	k := len(gs)
	edgesOf := func(i int) float64 { return float64(gs[i].M()) }

	// repro: prepared-cache miss (fresh engine) and hit (the warm one).
	res.set("repro.prepare_miss_us", perUnit(rp.run("repro.prepare_miss", k, func(i int) {
		sinkAny, _ = repro.NewEngine(nil).Prepare(gs[i])
	}), one, 1e3))
	res.set("repro.prepare_hit_us", perUnit(rp.run("repro.prepare_hit", k, func(i int) {
		sinkAny, _ = eng.Prepare(gs[i])
	}), one, 1e3))
	if err := allocReplay(res, in, eng, gs); err != nil {
		return err
	}

	// graph
	edges := make([][]repro.Edge, k)
	misMask := make([][]bool, k)
	for i, g := range gs {
		edges[i] = g.Edges()
		misMask[i] = make([]bool, g.N())
		for _, v := range in.ref(i, serve.ProblemMIS).mis {
			misMask[i][v] = true
		}
	}
	res.set("graph.fromedges_ns_per_edge", perUnit(rp.run("graph.fromedges", k, func(i int) {
		sinkGraph = repro.FromEdges(gs[i].N(), edges[i])
	}), edgesOf, 1))
	res.set("graph.fingerprint_ns_per_edge", perUnit(rp.run("graph.fingerprint", k, func(i int) {
		sinkU64 = gs[i].Fingerprint()
	}), edgesOf, 1))
	res.set("graph.without_nodes_ns_per_edge", perUnit(rp.run("graph.without_nodes", k, func(i int) {
		sinkGraph = gs[i].WithoutNodes(misMask[i])
	}), edgesOf, 1))
	res.set("graph.linegraph_ms", perUnit(rp.run("graph.linegraph", k, func(i int) {
		sinkGraph, _ = gs[i].LineGraph()
	}), one, 1e6))

	// sparsify: the round-1 chains of the matching and MIS paths, replayed on
	// warm scratch; one untimed pass first records stage counts and E*.
	p := core.DefaultParams()
	model := func(g *repro.Graph) *simcost.Model { return simcost.New(g.N(), g.M(), p.Epsilon) }
	estar := make([][]repro.Edge, k)
	var eStages, nStages, eFrac float64
	for i, g := range gs {
		er := sparsify.SparsifyEdges(g, p, model(g))
		estar[i] = er.EStar.Edges()
		eStages += float64(len(er.Stages))
		eFrac += float64(er.EStar.M()) / float64(g.M())
		nStages += float64(len(sparsify.SparsifyNodes(g, p, model(g)).Stages))
	}
	res.set("sparsify.edge_stages", eStages/float64(k))
	res.set("sparsify.node_stages", nStages/float64(k))
	res.set("sparsify.estar_frac", eFrac/float64(k))
	sc := scratch.New()
	edgesMS := perUnit(rp.run("sparsify.edges", k, func(i int) {
		sc.Reset()
		sinkAny = sparsify.SparsifyEdgesIn(sc, gs[i], p, model(gs[i]))
	}), one, 1e6)
	nodesMS := perUnit(rp.run("sparsify.nodes", k, func(i int) {
		sc.Reset()
		sinkAny = sparsify.SparsifyNodesIn(sc, gs[i], p, model(gs[i]))
	}), one, 1e6)
	res.set("sparsify.edges_ms", edgesMS)
	res.set("sparsify.nodes_ms", nodesMS)
	res.set("sparsify.edges_round1_share", per(edgesMS, res.Metrics["matching.first_round_ms"].Value))
	res.set("sparsify.nodes_round1_share", per(nodesMS, res.Metrics["mis.first_round_ms"].Value))

	// hashfam: 64 seeds over the round-1 E* keys, the selection's pairwise
	// family on slot 0 and the stages' k-wise family on slot 1.
	const seeds = 64
	type kernel struct {
		ev    *hashfam.Evaluator
		keys  []uint64
		seeds [][]uint64
	}
	newKernel := func(fam hashfam.Family, i, slot int) kernel {
		kn := kernel{ev: hashfam.NewEvaluator(fam), keys: core.SlotKeysInto(nil, estar[i], slot, gs[i].N())}
		for s := 0; s < seeds; s++ {
			seed := make([]uint64, fam.SeedLen())
			for j := range seed {
				seed[j] = mix64(uint64(s*fam.SeedLen()+j)) % fam.P()
			}
			kn.seeds = append(kn.seeds, seed)
		}
		return kn
	}
	pair := make([]kernel, k)
	kwise := make([]kernel, k)
	rowLen := 0
	for i, g := range gs {
		pair[i] = newKernel(core.PairwiseFamily(g.N()), i, 0)
		kwise[i] = newKernel(core.KWiseFamily(g.N(), p.KWise), i, 1)
		rowLen = max(rowLen, len(pair[i].keys))
	}
	out := make([][]uint64, seeds)
	for s := range out {
		out[s] = make([]uint64, rowLen)
	}
	seedKeys := func(i int) float64 { return float64(seeds * len(estar[i])) }
	res.set("hashfam.pairwise_ns_per_seed_key", perUnit(rp.run("hashfam.pairwise", k, func(i int) {
		pair[i].ev.EvalSeedsBlocked(pair[i].seeds, pair[i].keys, out)
	}), seedKeys, 1))
	res.set("hashfam.kwise_ns_per_seed_key", perUnit(rp.run("hashfam.kwise", k, func(i int) {
		kwise[i].ev.EvalSeedsBlocked(kwise[i].seeds, kwise[i].keys, out)
	}), seedKeys, 1))

	setSelectReplays(res, rp, gs, estar)
	// check: verifying one matching and one MIS per graph.
	res.set("check.verify_us_per_solve", perUnit(rp.run("check.verify", k, func(i int) {
		_, r1 := check.IsMaximalMatching(gs[i], in.ref(i, serve.ProblemMatching).matching)
		_, r2 := check.IsMaximalIS(gs[i], in.ref(i, serve.ProblemMIS).mis)
		sinkAny = r1 + r2
	}), func(int) float64 { return 2 }, 1e3))
	return nil
}

// setSelectReplays times the selection kernels on one pairwise hash row:
// the edge selection over E* (the fused fold on rounds that qualify, as in
// the matching path), the node selection with every node live (dense, flat
// tables) and with one node in eight live (sparse, epoch-stamped).
func setSelectReplays(res *result, rp *replayer, gs []*repro.Graph, estar [][]repro.Edge) {
	k := len(gs)
	type edgeCase struct {
		sel  core.EdgeSel
		z    []uint64
		lm   core.EdgeMinScratch
		fold core.EdgeFold
		dst  []graph.Edge
	}
	type nodeCase struct {
		sel  core.NodeSel
		z    []uint64
		fold core.NodeFold
		dst  []graph.NodeID
	}
	ec := make([]*edgeCase, k)
	dense := make([]*nodeCase, k)
	sparse := make([]*nodeCase, k)
	for i, g := range gs {
		n := g.N()
		fam := core.PairwiseFamily(n)
		ev := hashfam.NewEvaluator(fam)
		seed := []uint64{mix64(1) % fam.P(), mix64(2) % fam.P()}
		keys := core.SlotKeysInto(nil, estar[i], 0, n)
		c := &edgeCase{}
		core.EdgeSelInit(&c.sel, n, estar[i], nil, fam.P()-1)
		c.z = ev.EvalKeys(seed, keys, make([]uint64, len(keys)))
		ec[i] = c

		keyOf := func(v graph.NodeID) uint64 { return core.SlotKey(uint64(v), 0, n) }
		all := make([]bool, n)
		var eighth []graph.NodeID
		for v := range all {
			all[v] = true
			if v%8 == 0 {
				eighth = append(eighth, graph.NodeID(v))
			}
		}
		d := &nodeCase{}
		d.sel.Init(n, all, keyOf, fam.P()-1)
		d.z = ev.EvalKeys(seed, d.sel.Keys(), make([]uint64, n))
		dense[i] = d
		s := &nodeCase{}
		s.sel.InitList(n, eighth, keyOf, fam.P()-1)
		s.z = ev.EvalKeys(seed, s.sel.Keys(), make([]uint64, len(eighth)))
		sparse[i] = s
	}
	res.set("core.edge_select_ns_per_key", perUnit(rp.run("core.edge_select", k, func(i int) {
		c := ec[i]
		if c.sel.Fold() {
			row := c.fold.Begin(&c.sel, 1)[0]
			core.EdgeFoldScatter(row, &c.sel, 0, len(c.z), c.z)
			c.dst = core.EdgeFoldDecode(c.dst, row, &c.sel)
			return
		}
		c.dst = core.LocalMinEdgesSel(&c.lm, &c.sel, c.z)
	}), func(i int) float64 { return float64(len(estar[i])) }, 1))
	res.set("core.node_select_dense_ns_per_node", perUnit(rp.run("core.node_select_dense", k, func(i int) {
		d := dense[i]
		d.dst = core.LocalMinNodesSelIn(&d.fold, d.dst, gs[i], &d.sel, d.z)
	}), func(i int) float64 { return float64(len(dense[i].sel.Live())) }, 1))
	res.set("core.node_select_sparse_ns_per_node", perUnit(rp.run("core.node_select_sparse", k, func(i int) {
		s := sparse[i]
		s.dst = core.LocalMinNodesSel(s.dst, gs[i], &s.sel, s.z)
	}), func(i int) float64 { return float64(len(sparse[i].sel.Live())) }, 1))
}

// allocReplay solves every (graph, problem) cell of gs once on the warm
// engine and reports allocations and GC CPU share per solve.
func allocReplay(res *result, in *inputs, eng *repro.Engine, gs []*repro.Graph) error {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	var m0, m1 runtime.MemStats
	metrics.Read(samples)
	gc0, all0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	runtime.ReadMemStats(&m0)
	var recs []*obs
	for i, g := range gs {
		pg, err := eng.Prepare(g)
		if err != nil {
			return err
		}
		for _, p := range problems {
			o := &obs{req: request{graph: i, problem: p}}
			var c counter
			got, err := solve(context.Background(), pg, p, &c)
			if err == nil {
				err = in.checkInproc(o.req, got, c.n)
			}
			o.err = err
			recs = append(recs, o)
		}
	}
	runtime.ReadMemStats(&m1)
	metrics.Read(samples)
	res.tally(recs)
	n := float64(len(recs))
	res.set("repro.allocs_per_solve", float64(m1.Mallocs-m0.Mallocs)/n)
	res.set("repro.alloc_kb_per_solve", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n)
	res.set("repro.gc_cpu_frac", per(samples[0].Value.Float64()-gc0, samples[1].Value.Float64()-all0))
	return nil
}
