package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"repro"
	"repro/internal/serve"
)

// family is one slice of a workload's graphs: count graphs drawn with
// repro.Generate(name, n, deg, seed+i), i running over the whole workload.
type family struct {
	name   string
	n, deg int
	count  int
}

// workload is one set of inputs the benchmark runs. Why each exists is
// recorded in BENCHMARK.json and README.md.
type workload struct {
	name     string
	families []family
	// served workloads drive a detservd child over HTTP; the others call
	// repro.Engine in-process.
	served bool
	// inline workloads send the graph with every request instead of
	// uploading it once and naming it by fingerprint.
	inline bool
	// strategy is what StrategyAuto must resolve to on every graph; empty
	// means not asserted.
	strategy repro.Strategy
	// warmups > 0 warms up with that prefix of the plan and starts the
	// window right after it; 0 warms up once per distinct request.
	warmups int
}

var workloads = []workload{
	{name: "inproc-sparsify", families: []family{{"gnm", 4096, 16, 4}}, strategy: repro.StrategySparsify},
	{name: "inproc-lowdeg", families: []family{{"grid", 4096, 4, 2}, {"regular", 4096, 3, 2}}, strategy: repro.StrategyLowDegree},
	{name: "serve-fp", families: []family{{"gnm", 1024, 8, 8}}, served: true},
	{name: "serve-inline", families: []family{{"gnm", 1024, 8, 768}}, served: true, inline: true, warmups: 32},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

var problems = []string{serve.ProblemMatching, serve.ProblemMIS}

// request is one entry of a workload's request plan.
type request struct {
	graph   int
	problem string
	// stream marks the quarter of each problem's served requests that use
	// NDJSON streaming; in-process solves observe every round anyway.
	stream bool
}

// inputs are everything a run derives from its seed before any timing.
type inputs struct {
	graphs []*repro.Graph
	plan   []request
	// refs holds the reference solve of each (graph, problem) cell, indexed
	// by cellIndex; see computeRefs for which cells have one.
	refs []*reference
	// graphJSON holds, for inline workloads, each graph's wire form: the
	// "graph" member of its requests.
	graphJSON [][]byte
}

// replayGraphs is how many of a workload's graphs the per-layer replays use.
const replayGraphs = 4

func generate(w workload, seed uint64) (*inputs, error) {
	in := &inputs{}
	for _, f := range w.families {
		for j := 0; j < f.count; j++ {
			g, err := repro.Generate(f.name, f.n, f.deg, seed+uint64(len(in.graphs)))
			if err != nil {
				return nil, err
			}
			in.graphs = append(in.graphs, g)
		}
	}
	in.plan = buildPlan(w, len(in.graphs))
	return in, nil
}

// encodeGraphs fills graphJSON, outside any timed set-up.
func (in *inputs) encodeGraphs() error {
	for _, g := range in.graphs {
		b, err := json.Marshal(upload(g))
		if err != nil {
			return err
		}
		in.graphJSON = append(in.graphJSON, b)
	}
	return nil
}

// buildPlan lays out the deterministic request cycle. Non-inline workloads
// sweep every (graph, problem) cell four times; inline workloads sweep every
// graph twice with the problem alternating, so a graph comes back only after
// every other graph has been sent once. Every fourth request of each problem
// streams, rotating by sweep so each cell streams in some sweep.
func buildPlan(w workload, graphs int) []request {
	var plan []request
	seen := map[string]int{}
	add := func(g int, p string, sweep int) {
		k := seen[p]
		seen[p]++
		plan = append(plan, request{graph: g, problem: p, stream: (k+sweep)%4 == 3})
	}
	if w.inline {
		for sweep := 0; sweep < 2; sweep++ {
			for g := 0; g < graphs; g++ {
				add(g, problems[(g+sweep)%2], sweep)
			}
		}
		return plan
	}
	for sweep := 0; sweep < 4; sweep++ {
		for g := 0; g < graphs; g++ {
			for _, p := range problems {
				add(g, p, sweep)
			}
		}
	}
	return plan
}

// warmupPlan lists the untimed warm-up requests.
func (w workload) warmupPlan(plan []request) []request {
	if w.warmups > 0 {
		return plan[:w.warmups]
	}
	type key struct {
		graph   int
		problem string
		stream  bool
	}
	seen := map[key]bool{}
	var out []request
	for _, r := range plan {
		k := key{r.graph, r.problem, r.stream && w.served}
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// reference is a direct Engine solve of one cell, computed before timing.
type reference struct {
	digest      uint64
	strategy    repro.Strategy
	events      int // observer rounds
	iterations  int
	costRounds  int
	peakWords   int
	seedBatches int
	matching    []repro.Edge
	mis         []repro.NodeID
}

func cellIndex(graph int, problem string) int {
	if problem == serve.ProblemMIS {
		return 2*graph + 1
	}
	return 2 * graph
}

// computeRefs solves on eng every (graph, problem) cell the run checks
// against a direct solve, and checks that StrategyAuto resolved as the
// workload expects. That is every cell, except on inline workloads: there
// non-streamed requests are checked for maximality instead, and only the
// streamed cells and the replay graphs get a reference.
func computeRefs(eng *repro.Engine, w workload, in *inputs) error {
	in.refs = make([]*reference, 2*len(in.graphs))
	need := make([]bool, len(in.refs))
	for i := range need {
		need[i] = !w.inline || i < 2*replayGraphs
	}
	for _, r := range in.plan {
		if r.stream {
			need[cellIndex(r.graph, r.problem)] = true
		}
	}
	for g, graph := range in.graphs {
		for _, p := range problems {
			if !need[cellIndex(g, p)] {
				continue
			}
			pg, err := eng.Prepare(graph)
			if err != nil {
				return err
			}
			var o counter
			r, err := solve(context.Background(), pg, p, &o)
			if err != nil {
				return fmt.Errorf("reference solve of graph %d %s: %w", g, p, err)
			}
			if w.strategy != "" && r.strategy != w.strategy {
				return fmt.Errorf("graph %d %s: auto resolved to %q, want %q", g, p, r.strategy, w.strategy)
			}
			r.events = o.n
			in.refs[cellIndex(g, p)] = r
		}
	}
	return nil
}

func (in *inputs) ref(graph int, problem string) *reference {
	return in.refs[cellIndex(graph, problem)]
}

type counter struct{ n int }

func (c *counter) OnRound(repro.RoundEvent) { c.n++ }

// solve runs one in-process solve and returns its reference record.
func solve(ctx context.Context, pg *repro.PreparedGraph, problem string, o repro.Observer) (*reference, error) {
	if problem == serve.ProblemMatching {
		res, err := pg.MaximalMatchingCtx(ctx, repro.WithObserver(o))
		if err != nil {
			return nil, err
		}
		d := newDigest(problem, string(res.Strategy), res.Iterations, res.Costs)
		for _, e := range res.Edges {
			d.add(int64(e.U), int64(e.V))
		}
		return &reference{digest: d.sum(), strategy: res.Strategy, iterations: res.Iterations, costRounds: res.Costs.Rounds, peakWords: res.Costs.PeakMachineWords, seedBatches: res.Costs.SeedBatches, matching: res.Edges}, nil
	}
	res, err := pg.MaximalIndependentSetCtx(ctx, repro.WithObserver(o))
	if err != nil {
		return nil, err
	}
	d := newDigest(problem, string(res.Strategy), res.Iterations, res.Costs)
	for _, v := range res.Nodes {
		d.add(int64(v))
	}
	return &reference{digest: d.sum(), strategy: res.Strategy, iterations: res.Iterations, costRounds: res.Costs.Rounds, peakWords: res.Costs.PeakMachineWords, seedBatches: res.Costs.SeedBatches, mis: res.Nodes}, nil
}

// digest is an FNV-1a hash over a solve's output and cost report, fed the
// same sequence whether the result came from an Engine or a served
// response, so the two compare bit for bit.
type digest struct{ h uint64 }

func newDigest(problem, strategy string, iterations int, c *repro.CostReport) *digest {
	h := fnv.New64a()
	_, _ = h.Write([]byte(problem + "/" + strategy)) // hash.Hash writes never fail
	d := &digest{h: h.Sum64()}
	d.add(int64(iterations))
	if c != nil {
		d.add(int64(c.Rounds), int64(c.Machines), int64(c.SpacePerMachine), int64(c.PeakMachineWords), int64(c.SeedBatches), int64(len(c.Violations)))
	}
	return d
}

func (d *digest) add(vs ...int64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.h ^= uint64(byte(v >> (8 * i)))
			d.h *= 1099511628211
		}
	}
}

func (d *digest) sum() uint64 { return d.h }

func responseDigest(r *serve.SolveResponse) uint64 {
	d := newDigest(r.Problem, r.Strategy, r.Iterations, r.Costs)
	for _, e := range r.Edges {
		d.add(int64(e[0]), int64(e[1]))
	}
	for _, v := range r.Nodes {
		d.add(int64(v))
	}
	return d.sum()
}
