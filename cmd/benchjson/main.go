// Command benchjson converts `go test -bench` text output into a JSON
// array, one object per benchmark result, so CI can archive benchmark runs
// as machine-readable artifacts (BENCH_*.json style) and diff them across
// commits.
//
// Usage:
//
//	go test -bench=. -benchtime=1x ./... | go run ./cmd/benchjson -o bench.json
//	go run ./cmd/benchjson < bench.txt           # JSON to stdout
//
// With -compare old.json the current results (stdin, or a previously
// written JSON via -input new.json) are diffed against a baseline file:
// a per-benchmark ns/op and allocs/op delta table goes to stdout, and
// -warn '<regexp>' emits stderr warnings (never a failure) for named
// benchmarks whose ns/op regressed by more than -warn-pct percent. This is
// what `make bench-compare` and the CI bench-smoke job run against the
// committed BENCH_*.json baseline.
//
// The parser understands the standard benchmark line format
//
//	BenchmarkName-8   	     100	  11222333 ns/op	  4455 B/op	   66 allocs/op
//
// including custom metrics (`go test -bench` emits `<value> <unit>` pairs).
// Non-benchmark lines (pass/fail summaries, package headers) are skipped;
// `ok`/`FAIL` package trailers are tallied so a failing bench run still
// yields a non-zero exit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -P GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op metric when present.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// BytesPerOp is the B/op metric (-benchmem / ReportAllocs). Always
	// emitted — the allocation trajectory is archived alongside ns/op, so
	// downstream diffs can rely on the column existing.
	BytesPerOp float64 `json:"bytes_per_op"`
	// AllocsPerOp is the allocs/op metric. Always emitted, see BytesPerOp.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// HasMem records whether the line carried BOTH the B/op and allocs/op
	// fields (distinguishes a true zero from a run without -benchmem or a
	// truncated line).
	HasMem bool `json:"has_mem"`
	// Metrics holds any remaining unit → value pairs (custom b.ReportMetric
	// units, MB/s, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		out     = flag.String("o", "", "output file (default stdout; with -compare, JSON is only written when -o is set)")
		indent  = flag.Bool("indent", true, "pretty-print the JSON")
		input   = flag.String("input", "", "read results from a previously written JSON file instead of parsing go-test output on stdin")
		compare = flag.String("compare", "", "baseline JSON file: print per-benchmark ns/op and allocs/op deltas of the current results against it")
		warnRe  = flag.String("warn", "", "with -compare: regexp of benchmark names that emit a warning when ns/op regresses by more than -warn-pct (never fails the run)")
		warnPct = flag.Float64("warn-pct", 20, "with -compare: ns/op regression threshold in percent for -warn")
		median  = flag.Bool("median", false, "collapse repeated benchmark names (go test -count=N runs) into one result per name holding the per-metric medians")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	var results []Result
	failed := 0
	if *input != "" {
		var err error
		if results, err = readResults(*input); err != nil {
			log.Fatal(err)
		}
	} else {
		var err error
		if results, failed, err = parse(os.Stdin); err != nil {
			log.Fatal(err)
		}
	}

	if *median {
		results = medianResults(results)
	}

	if *out != "" || *compare == "" {
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				log.Fatal(err)
			}
			defer func() {
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
			}()
			w = f
		}
		enc := json.NewEncoder(w)
		if *indent {
			enc.SetIndent("", "  ")
		}
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
		if *out != "" {
			fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *out)
		}
	}
	// Only freshly parsed go-test output gets the -benchmem nag: JSON loaded
	// back via -input was checked when benchjson first parsed it.
	if *input == "" {
		if noMem := countWithoutMem(results); noMem > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: warning: %d result(s) lack B/op+allocs/op — was the run missing -benchmem?\n", noMem)
		}
	}
	if *compare != "" {
		baseline, err := readResults(*compare)
		if err != nil {
			log.Fatal(err)
		}
		warnings, err := compareResults(os.Stdout, baseline, results, *warnRe, *warnPct)
		if err != nil {
			log.Fatal(err)
		}
		// Regressions warn, never fail: the bench-smoke runners are shared
		// and noisy, so a hard gate would flake. The warning text is what
		// CI surfaces.
		for _, w := range warnings {
			fmt.Fprintf(os.Stderr, "benchjson: warning: %s\n", w)
		}
	}
	if failed > 0 {
		log.Fatalf("%d package(s) reported FAIL", failed)
	}
}

// readResults loads a JSON array previously written by this tool.
func readResults(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// compareResults prints a per-benchmark delta table (current vs baseline,
// matched by name) and returns warning strings for every benchmark whose
// name matches warnExpr and whose ns/op regressed by more than warnPct
// percent. Benchmarks present on only one side are listed but never warn.
func compareResults(w io.Writer, baseline, current []Result, warnExpr string, warnPct float64) ([]string, error) {
	var warnOn *regexp.Regexp
	if warnExpr != "" {
		var err error
		if warnOn, err = regexp.Compile(warnExpr); err != nil {
			return nil, fmt.Errorf("-warn: %w", err)
		}
	}
	old := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		old[r.Name] = r
	}
	var warnings []string
	fmt.Fprintf(w, "%-45s %15s %15s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "Δns/op", "Δallocs")
	for _, cur := range current {
		o, ok := old[cur.Name]
		if !ok {
			fmt.Fprintf(w, "%-45s %15s %15.0f %9s %9s\n", cur.Name, "-", cur.NsPerOp, "new", "-")
			continue
		}
		delete(old, cur.Name)
		nsDelta := math.NaN()
		if o.NsPerOp > 0 && cur.NsPerOp > 0 {
			nsDelta = (cur.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		allocDelta := math.NaN()
		if o.HasMem && cur.HasMem && o.AllocsPerOp > 0 {
			allocDelta = (cur.AllocsPerOp - o.AllocsPerOp) / o.AllocsPerOp * 100
		}
		fmt.Fprintf(w, "%-45s %15.0f %15.0f %8s%% %8s%%\n",
			cur.Name, o.NsPerOp, cur.NsPerOp, fmtDelta(nsDelta), fmtDelta(allocDelta))
		if warnOn != nil && warnOn.MatchString(cur.Name) && !math.IsNaN(nsDelta) && nsDelta > warnPct {
			warnings = append(warnings,
				fmt.Sprintf("%s regressed %.1f%% in ns/op (%.0f -> %.0f, threshold %.0f%%)",
					cur.Name, nsDelta, o.NsPerOp, cur.NsPerOp, warnPct))
		}
	}
	for _, r := range baseline {
		if _, gone := old[r.Name]; gone {
			fmt.Fprintf(w, "%-45s %15.0f %15s %9s %9s\n", r.Name, r.NsPerOp, "-", "gone", "-")
		}
	}
	return warnings, nil
}

// medianResults collapses runs that repeat a benchmark name (go test
// -count=N) into one result per name in first-appearance order, taking the
// median of every numeric column independently (ns/op, B/op, allocs/op,
// iterations, and each custom metric). Medians resist the noisy-runner
// outliers that make single bench-compare runs flake: one slow run out of
// three no longer reads as a regression. Names that appear once pass through
// unchanged; HasMem holds iff every run of the name carried the allocation
// columns.
func medianResults(results []Result) []Result {
	byName := make(map[string][]Result, len(results))
	var order []string
	for _, r := range results {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		if len(runs) == 1 {
			out = append(out, runs[0])
			continue
		}
		med := Result{Name: name, Procs: runs[0].Procs, HasMem: true}
		pick := func(get func(Result) float64) float64 {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = get(r)
			}
			return median(vals)
		}
		med.Iterations = int64(pick(func(r Result) float64 { return float64(r.Iterations) }))
		med.NsPerOp = pick(func(r Result) float64 { return r.NsPerOp })
		med.BytesPerOp = pick(func(r Result) float64 { return r.BytesPerOp })
		med.AllocsPerOp = pick(func(r Result) float64 { return r.AllocsPerOp })
		units := make(map[string]bool)
		for _, r := range runs {
			med.HasMem = med.HasMem && r.HasMem
			for u := range r.Metrics {
				units[u] = true
			}
		}
		for u := range units {
			if med.Metrics == nil {
				med.Metrics = make(map[string]float64)
			}
			med.Metrics[u] = pick(func(r Result) float64 { return r.Metrics[u] })
		}
		out = append(out, med)
	}
	return out
}

// median returns the middle of the sorted values (mean of the two middles for
// an even count). vals may be reordered.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// fmtDelta renders a percentage delta with sign, or "-" for NaN.
func fmtDelta(d float64) string {
	if math.IsNaN(d) {
		return "-"
	}
	return fmt.Sprintf("%+.1f", d)
}

// countWithoutMem returns how many results carried no allocation metrics.
func countWithoutMem(results []Result) int {
	n := 0
	for _, r := range results {
		if !r.HasMem {
			n++
		}
	}
	return n
}

// parse scans `go test -bench` output and returns the benchmark results plus
// the number of FAIL package trailers seen.
func parse(r io.Reader) ([]Result, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	results := []Result{}
	failed := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseLine(line); ok {
				results = append(results, res)
			}
		case strings.HasPrefix(line, "FAIL\t"):
			// Count only the per-package trailer ("FAIL\t<pkg>\t<time>");
			// the bare "FAIL" line go test prints above it would double-
			// count the same package.
			failed++
		}
	}
	return results, failed, sc.Err()
}

// parseLine parses one benchmark result line; ok is false for lines that
// merely start with "Benchmark" without being results (e.g. a name echoed
// by -v with no fields after it).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name, procs := splitProcs(fields[0])
	res := Result{Name: name, Procs: procs, Iterations: iters}
	var sawBytes, sawAllocs bool
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
			sawBytes = true
		case "allocs/op":
			res.AllocsPerOp = v
			sawAllocs = true
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	// Both units must be present before the allocation columns count as
	// real: a lone B/op (truncated line) must not read as zero allocs/op.
	res.HasMem = sawBytes && sawAllocs
	return res, true
}

// splitProcs splits "BenchmarkFoo-8" into ("BenchmarkFoo", 8); names without
// a numeric suffix report procs = 1.
func splitProcs(s string) (string, int) {
	i := strings.LastIndex(s, "-")
	if i < 0 {
		return s, 1
	}
	p, err := strconv.Atoi(s[i+1:])
	if err != nil || p <= 0 {
		return s, 1
	}
	return s[:i], p
}
