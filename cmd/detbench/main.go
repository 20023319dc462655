// Command detbench is the repository's end-to-end and per-layer benchmark.
// It drives the solvers the way their users do — repro.Engine in-process,
// detservd over HTTP — on four workloads named in BENCHMARK.json, checks
// every output, and prints each metric by name with its unit.
//
// One workload, as the benchmark contract runs it (build first with
// run.sh, which also supplies -detservd):
//
//	bash cmd/detbench/run.sh --workload inproc-sparsify --seed 1 --seconds 20 --trace 0
//
// prints "workload metric value unit" lines and, last, one JSON object with
// the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 is the separate traced run that reports the
// per-layer metrics (and writes its spans with -trace-out).
//
// Every workload, untraced then traced, each run in a fresh child process:
//
//	bash cmd/detbench/run.sh -seed 1 -out results.json
//
// writes results.json and, next to it, trace.json. Two sets of such files
// compare with
//
//	bash cmd/detbench/run.sh -compare A1.json,A2.json B1.json,B2.json
//
// See README.md for the workloads, the metrics and how to read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result line; empty runs every workload")
		seed         = flag.Uint64("seed", 1, "workload seed: graph i is repro.Generate(family, n, deg, seed+i)")
		seconds      = flag.Float64("seconds", 20, "length of the measured window (a full run's traced pass takes 10 s)")
		traceFlag    = flag.Int("trace", 0, "1 for the traced run reporting the per-layer metrics")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans to this file")
		out          = flag.String("out", "", "full run: write the results JSON here (trace.json goes next to it)")
		detservd     = flag.String("detservd", "", "detservd binary serving the served workloads")
		compare      = flag.String("compare", "", "comma-separated result files of set A; the argument names set B")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("detbench: ")

	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			log.Fatal("-compare A.json[,...] needs set B as its one argument")
		}
		// run.sh runs from the repository root, where BENCHMARK.json holds
		// the bounds.
		regressed, err := runCompare(os.Stdout, "BENCHMARK.json", *compare, flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workloadName != "":
		w, err := workloadByName(*workloadName)
		if err != nil {
			log.Fatal(err)
		}
		if w.served && *detservd == "" {
			log.Fatal("served workloads need -detservd (run.sh passes it)")
		}
		cfg := config{w: w, seed: *seed, window: secs(*seconds), traced: *traceFlag == 1, start: startDetservd(*detservd), setups: 5}
		var tr *tracer
		if cfg.traced {
			tr = newTracer(time.Now())
		}
		res, err := runWorkload(cfg, tr)
		if err != nil {
			log.Fatal(err)
		}
		if tr != nil && *traceOut != "" {
			if err := tr.write(*traceOut, w.name, *seed); err != nil {
				log.Fatal(err)
			}
		}
		if err := printResult(w.name, res, specsFor(cfg.traced)); err != nil {
			log.Fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if *out == "" {
			log.Fatal("a full run needs -out")
		}
		ok, err := runAll(*out, *seed, *seconds, *detservd)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			log.Fatal("some outputs failed their checks; see the results file")
		}
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// printResult writes one line per metric and detail, then the result line.
func printResult(name string, res *result, specs []metricSpec) error {
	line := func(metric string, v value) {
		fmt.Printf("%s %s %s %s\n", name, metric, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	for _, s := range specs {
		line(s.name, res.Metrics[s.name])
	}
	for _, k := range sortedKeys(res.Detail) {
		line(k, res.Detail[k])
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "detbench: %s: %s\n", name, e)
	}
	last := *res
	last.Detail = nil
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
