package main

import (
	"maps"
	"slices"
	"time"
)

type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics a user of the library or the server sees; every
// untraced run reports all of them. BENCHMARK.json holds their bounds.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"matching_p50_ms", "ms", "lower"},
	{"matching_p90_ms", "ms", "lower"},
	{"mis_p50_ms", "ms", "lower"},
	{"mis_p90_ms", "ms", "lower"},
	{"matching_ttfr_p50_ms", "ms", "lower"},
	{"matching_ttfr_p90_ms", "ms", "lower"},
	{"mis_ttfr_p50_ms", "ms", "lower"},
	{"mis_ttfr_p90_ms", "ms", "lower"},
	{"throughput_sps", "1/s", "higher"},
	{"cpu_ms_per_solve", "ms", "lower"},
	{"mpc_rounds_per_solve", "rounds", "lower"},
	{"peak_machine_words", "words", "lower"},
}

// roundMetrics are reported once per problem, prefixed "matching." and
// "mis.", from whichever module solves it on the workload.
var roundMetrics = []metricSpec{
	{"rounds_per_solve", "rounds", "lower"},
	{"round_ms_mean", "ms", "lower"},
	{"first_round_ms", "ms", "lower"},
	{"seeds_per_round", "seeds", "lower"},
	{"seed_found_frac", "ratio", "higher"},
	{"edges_removed_frac", "ratio", "higher"},
}

// perLayer are the metrics of single layers; every traced run reports all
// of them. README.md lists the end-to-end metric each should move.
var perLayer = slices.Concat([]metricSpec{
	{"host.calib_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"mem.rss_mb", "MB", "lower"},
	{"mem.peak_rss_mb", "MB", "lower"},
	{"serve.overhead_p50_ms", "ms", "lower"},
	{"serve.overhead_p90_ms", "ms", "lower"},
	{"serve.request_kb", "KB", "lower"},
	{"serve.decode_us_per_kb", "us/KB", "lower"},
	{"serve.response_kb", "KB", "lower"},
	{"serve.encode_us_per_kb", "us/KB", "lower"},
	{"serve.completed_ratio", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.prepared_graphs", "count", "lower"},
	{"serve.round_lines_per_stream", "count", "lower"},
	{"repro.prepare_miss_us", "us", "lower"},
	{"repro.prepare_hit_us", "us", "lower"},
	{"repro.allocs_per_solve", "count", "lower"},
	{"repro.alloc_kb_per_solve", "KB", "lower"},
	{"repro.gc_cpu_frac", "ratio", "lower"},
	{"graph.fromedges_ns_per_edge", "ns", "lower"},
	{"graph.fingerprint_ns_per_edge", "ns", "lower"},
	{"graph.without_nodes_ns_per_edge", "ns", "lower"},
	{"graph.linegraph_ms", "ms", "lower"},
}, prefixed("matching.", roundMetrics), prefixed("mis.", roundMetrics), []metricSpec{
	{"condexp.batches_per_solve", "count", "lower"},
	{"condexp.seeds_per_batch", "seeds", "lower"},
	{"simcost.seed_batches_per_solve", "count", "lower"},
	{"sparsify.edges_ms", "ms", "lower"},
	{"sparsify.nodes_ms", "ms", "lower"},
	{"sparsify.edge_stages", "count", "lower"},
	{"sparsify.node_stages", "count", "lower"},
	{"sparsify.estar_frac", "ratio", "lower"},
	{"sparsify.edges_round1_share", "ratio", "lower"},
	{"sparsify.nodes_round1_share", "ratio", "lower"},
	{"hashfam.pairwise_ns_per_seed_key", "ns", "lower"},
	{"hashfam.kwise_ns_per_seed_key", "ns", "lower"},
	{"core.edge_select_ns_per_key", "ns", "lower"},
	{"core.node_select_dense_ns_per_node", "ns", "lower"},
	{"core.node_select_sparse_ns_per_node", "ns", "lower"},
	{"check.verify_us_per_solve", "us", "lower"},
})

func prefixed(prefix string, specs []metricSpec) []metricSpec {
	out := make([]metricSpec, len(specs))
	for i, s := range specs {
		out[i] = metricSpec{prefix + s.name, s.unit, s.better}
	}
	return out
}

func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. The last line a run prints is its JSON
// without Detail: sample counts, replay extremes and the host calibration
// go to Detail and the human-readable lines.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Detail    map[string]value `json:"detail,omitempty"`
	errs      []string
}

func newResult() *result {
	return &result{Metrics: map[string]value{}, Detail: map[string]value{}}
}

// tally counts records as attempted and the failed, rejected or wrong ones
// as failed, keeping the first few failure messages.
func (r *result) tally(recs []*obs) {
	for _, o := range recs {
		r.Attempted++
		if o.err != nil {
			r.Failed++
			if len(r.errs) < 10 {
				r.errs = append(r.errs, o.err.Error())
			}
		}
	}
}

func (r *result) set(name string, v float64) {
	for _, s := range slices.Concat(endToEnd, perLayer) {
		if s.name == name {
			r.Metrics[name] = value{v, s.unit}
			return
		}
	}
	panic("detbench: undeclared metric " + name)
}

func (r *result) note(name string, v float64, unit string) { r.Detail[name] = value{v, unit} }

// per is a/b, and 0 when b is 0 so an empty sample never reaches the JSON
// encoder as NaN or Inf.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stratifiedQuantile is the q-quantile in ms of the records of one problem
// that pick accepts, taken per stratum and averaged with each stratum's
// sample share as its weight. A stratum is a graph, or, on inline workloads
// whose graphs rarely repeat within a window, a solve's iteration count.
// Solve times differ by graph and by iteration count, and a quantile pooled
// over such modes lands between them and does not repeat from run to run.
// It also returns the sample count.
func stratifiedQuantile(recs []*obs, problem string, inline bool, pick func(*obs) (time.Duration, bool), q float64) (float64, int) {
	strata := map[int][]float64{}
	n := 0
	for _, o := range recs {
		d, ok := pick(o)
		if !ok || o.req.problem != problem {
			continue
		}
		s := o.req.graph
		if inline {
			s = o.iterations
		}
		strata[s] = append(strata[s], ms(d))
		n++
	}
	sum := 0.0
	for _, s := range slices.Sorted(maps.Keys(strata)) {
		slices.Sort(strata[s])
		sum += float64(len(strata[s])) * quantile(strata[s], q)
	}
	return per(sum, float64(n)), n
}

// measured is what a run's set-ups and measured window yield.
type measured struct {
	setups   []float64 // seconds per set-up
	warm     []*obs    // warm-ups of every set-up
	lastWarm []*obs    // warm-ups of the set-up the window ran on
	win      []*obs
	elapsed  time.Duration
	cpu      time.Duration // CPU time of the solving process over the window
	// Its resident set over the window (median of samples every 250 ms) and
	// at its peak.
	rssMB, peakRSSMB float64
	// Served runs only: /v1/status around the window, and the client.
	before, after statsSnapshot
	c             *client
}

type statsSnapshot struct {
	completed, rejected int64
	prepared            int
}

// latencyPick accepts the successful records whose latency counts: every
// in-process solve, the non-streamed served requests.
func latencyPick(served bool) func(*obs) (time.Duration, bool) {
	return func(o *obs) (time.Duration, bool) { return o.latency, o.ok() && !(served && o.req.stream) }
}

func ttfrPick(o *obs) (time.Duration, bool) { return o.ttfr, o.ok() && o.ttfr > 0 }

// setEndToEnd fills the end-to-end metrics of an untraced run.
func setEndToEnd(res *result, w workload, m *measured) {
	res.set("setup_s", median(m.setups))
	for _, p := range problems {
		for _, q := range []struct {
			label string
			pick  func(*obs) (time.Duration, bool)
		}{{"", latencyPick(w.served)}, {"ttfr_", ttfrPick}} {
			p50, n := stratifiedQuantile(m.win, p, w.inline, q.pick, 0.5)
			p90, _ := stratifiedQuantile(m.win, p, w.inline, q.pick, 0.9)
			res.set(p+"_"+q.label+"p50_ms", p50)
			res.set(p+"_"+q.label+"p90_ms", p90)
			res.note("samples."+p+"_"+q.label+"latency", float64(n), "count")
		}
	}
	ok := 0
	for _, o := range m.win {
		if o.ok() {
			ok++
		}
	}
	res.set("throughput_sps", per(float64(ok), m.elapsed.Seconds()))
	res.set("cpu_ms_per_solve", per(ms(m.cpu), float64(ok)))
	// The MPC cost counts are deterministic per request, so they come from
	// the fixed warm-up set rather than from however many requests the
	// window happened to finish. Both are means over that set: a maximum
	// would follow whichever single graph of the seed peaks highest, and so
	// swing from seed to seed by as much as its bound.
	rounds, words, n := 0, 0, 0
	for _, o := range m.lastWarm {
		if o.ok() {
			rounds += o.costRounds
			words += o.peakWords
			n++
		}
	}
	res.set("mpc_rounds_per_solve", per(float64(rounds), float64(n)))
	res.set("peak_machine_words", per(float64(words), float64(n)))
}

// setRounds fills the per-problem round metrics and the condexp and simcost
// counts from the window's records that carry rounds: traced in-process
// solves and streamed requests.
func setRounds(res *result, win []*obs) {
	var solves, batches, batchSeeds, seedBatches, costed int
	for _, p := range problems {
		var n, rounds, seeds, found, removedN int
		var removed float64
		var first, total time.Duration
		for _, o := range win {
			if !o.ok() || o.req.problem != p || len(o.rounds) == 0 {
				continue
			}
			n++
			rounds += len(o.rounds)
			first += o.rounds[0].at
			total += o.rounds[len(o.rounds)-1].at
			for k, r := range o.rounds {
				seeds += r.seedsTried
				if r.found {
					found++
				}
				batches += r.batches
				batchSeeds += r.batchSeeds
				next := 0
				if k+1 < len(o.rounds) {
					next = o.rounds[k+1].liveEdges
				}
				if r.liveEdges > 0 {
					removed += float64(r.liveEdges-next) / float64(r.liveEdges)
					removedN++
				}
			}
		}
		solves += n
		res.set(p+".rounds_per_solve", per(float64(rounds), float64(n)))
		res.set(p+".round_ms_mean", per(ms(total), float64(rounds)))
		res.set(p+".first_round_ms", per(ms(first), float64(n)))
		res.set(p+".seeds_per_round", per(float64(seeds), float64(rounds)))
		res.set(p+".seed_found_frac", per(float64(found), float64(rounds)))
		res.set(p+".edges_removed_frac", per(removed, float64(removedN)))
	}
	res.set("condexp.batches_per_solve", per(float64(batches), float64(solves)))
	res.set("condexp.seeds_per_batch", per(float64(batchSeeds), float64(batches)))
	for _, o := range win {
		if o.ok() {
			seedBatches += o.seedBatches
			costed++
		}
	}
	res.set("simcost.seed_batches_per_solve", per(float64(seedBatches), float64(costed)))
}

// setTraceOverhead compares the traced and untraced halves of a traced
// window: traced p50 over untraced p50, minus 1, averaged over problems.
func setTraceOverhead(res *result, w workload, win []*obs) {
	lat := latencyPick(w.served)
	sum, n := 0.0, 0
	for _, p := range problems {
		t, _ := stratifiedQuantile(win, p, w.inline, func(o *obs) (time.Duration, bool) { d, ok := lat(o); return d, ok && o.traced }, 0.5)
		u, _ := stratifiedQuantile(win, p, w.inline, func(o *obs) (time.Duration, bool) { d, ok := lat(o); return d, ok && !o.traced }, 0.5)
		if t > 0 && u > 0 {
			sum += t/u - 1
			n++
		}
	}
	res.set("trace.overhead_frac", per(sum, float64(n)))
}
