package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: repro
cpu: Example CPU
BenchmarkMatchingDeterministicSerial-8   	       3	 410123456 ns/op	20123456 B/op	  123456 allocs/op
BenchmarkMatchingDeterministicParallel-8 	      10	 110123456 ns/op	21123456 B/op	  123999 allocs/op
BenchmarkCustomMetric-4                  	     100	    991122 ns/op	        17.5 rounds/op
BenchmarkNoSuffix                        	       1	      1000 ns/op
PASS
ok  	repro	12.345s
`
	results, failed, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("failed = %d, want 0", failed)
	}
	want := []Result{
		{Name: "BenchmarkMatchingDeterministicSerial", Procs: 8, Iterations: 3, NsPerOp: 410123456, BytesPerOp: 20123456, AllocsPerOp: 123456, HasMem: true},
		{Name: "BenchmarkMatchingDeterministicParallel", Procs: 8, Iterations: 10, NsPerOp: 110123456, BytesPerOp: 21123456, AllocsPerOp: 123999, HasMem: true},
		{Name: "BenchmarkCustomMetric", Procs: 4, Iterations: 100, NsPerOp: 991122, Metrics: map[string]float64{"rounds/op": 17.5}},
		{Name: "BenchmarkNoSuffix", Procs: 1, Iterations: 1, NsPerOp: 1000},
	}
	if !reflect.DeepEqual(results, want) {
		t.Fatalf("parse mismatch:\n got %+v\nwant %+v", results, want)
	}
	if got := countWithoutMem(results); got != 2 {
		t.Fatalf("countWithoutMem = %d, want 2", got)
	}
}

// TestBenchmemColumnsAlwaysEmitted pins the JSON contract: the allocation
// columns are present on every row (no omitempty), so the archived artifact
// can be diffed for allocation regressions without schema sniffing.
func TestBenchmemColumnsAlwaysEmitted(t *testing.T) {
	results, _, err := parse(strings.NewReader("BenchmarkX-2 5 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := json.NewEncoder(&buf).Encode(results); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{`"bytes_per_op"`, `"allocs_per_op"`, `"has_mem"`} {
		if !strings.Contains(buf.String(), col) {
			t.Fatalf("JSON missing column %s: %s", col, buf.String())
		}
	}
}

func TestParseCountsFailures(t *testing.T) {
	// The bare "FAIL" line and the "FAIL\t<pkg>" trailer belong to the same
	// failing package; only the trailer is counted.
	input := "BenchmarkX-2 5 100 ns/op\nFAIL\nFAIL\trepro/internal/foo\t0.1s\nFAIL\trepro/internal/bar\t0.2s\n"
	results, failed, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || failed != 2 {
		t.Fatalf("got %d results, %d failures; want 1, 2", len(results), failed)
	}
}

func TestParseSkipsNonResultBenchmarkLines(t *testing.T) {
	input := "BenchmarkVerbose\nBenchmarkBad notanumber ns/op\n"
	results, _, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("got %d results, want 0", len(results))
	}
}

// TestHasMemRequiresBothUnits pins the flag semantics: a line carrying only
// one of B/op / allocs/op does not count as a -benchmem result.
func TestHasMemRequiresBothUnits(t *testing.T) {
	results, _, err := parse(strings.NewReader("BenchmarkX-2 5 100 ns/op 50 B/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].HasMem {
		t.Fatalf("lone B/op must not set HasMem: %+v", results)
	}
}

// TestCompareResults covers the -compare mode: delta math, warn filtering,
// and the new/gone rows for benchmarks present on one side only.
func TestCompareResults(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkT7_SeedSearch", NsPerOp: 100, AllocsPerOp: 10, HasMem: true},
		{Name: "BenchmarkStable", NsPerOp: 200, AllocsPerOp: 4, HasMem: true},
		{Name: "BenchmarkGone", NsPerOp: 50},
	}
	current := []Result{
		{Name: "BenchmarkT7_SeedSearch", NsPerOp: 150, AllocsPerOp: 10, HasMem: true}, // +50%
		{Name: "BenchmarkStable", NsPerOp: 210, AllocsPerOp: 4, HasMem: true},         // +5%
		{Name: "BenchmarkNew", NsPerOp: 77},
	}
	var buf strings.Builder
	warnings, err := compareResults(&buf, baseline, current, "BenchmarkT7_SeedSearch|BenchmarkStable", 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "BenchmarkT7_SeedSearch") {
		t.Fatalf("want exactly one T7 warning, got %v", warnings)
	}
	out := buf.String()
	for _, want := range []string{"+50.0%", "+5.0%", "new", "gone"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestCompareResultsNoWarnBelowThreshold pins the warn-only contract: an
// improvement or a small regression emits no warning even for matched names.
func TestCompareResultsNoWarnBelowThreshold(t *testing.T) {
	baseline := []Result{{Name: "BenchmarkT7_SeedSearch", NsPerOp: 100}}
	current := []Result{{Name: "BenchmarkT7_SeedSearch", NsPerOp: 40}}
	var buf strings.Builder
	warnings, err := compareResults(&buf, baseline, current, "BenchmarkT7_SeedSearch", 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("improvement must not warn: %v", warnings)
	}
}

// TestCompareSkipsMemColumnsWithoutMem: rows without memory stats
// (has_mem: false, as a `go test -bench` line without B/op and allocs/op
// parses) — or a phantom has_mem: true row whose allocs/op is 0 — must
// never produce an allocation delta. The Δallocs column stays "-" whenever
// either side lacks real memory stats, while the ns/op delta is still
// computed.
func TestCompareSkipsMemColumnsWithoutMem(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkNoMem", NsPerOp: 1000, HasMem: false},
		{Name: "BenchmarkPhantomMem", NsPerOp: 500, HasMem: true}, // phantom: HasMem set, no real allocs
		{Name: "BenchmarkReal", NsPerOp: 100, AllocsPerOp: 10, HasMem: true},
	}
	current := []Result{
		{Name: "BenchmarkNoMem", NsPerOp: 1100, HasMem: false},
		{Name: "BenchmarkPhantomMem", NsPerOp: 510, HasMem: false},
		{Name: "BenchmarkReal", NsPerOp: 100, AllocsPerOp: 12, HasMem: true},
	}
	var buf strings.Builder
	if _, err := compareResults(&buf, baseline, current, "", 20); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		cols := strings.Fields(line)
		if len(cols) == 0 {
			continue
		}
		alloc := cols[len(cols)-1]
		switch cols[0] {
		case "BenchmarkNoMem", "BenchmarkPhantomMem":
			if alloc != "-%" {
				t.Errorf("%s: Δallocs column = %q, want %q (no real mem stats on both sides)", cols[0], alloc, "-%")
			}
			if !strings.Contains(line, "+10.0%") && !strings.Contains(line, "+2.0%") {
				t.Errorf("%s: ns/op delta missing from %q", cols[0], line)
			}
		case "BenchmarkReal":
			if alloc != "+20.0%" {
				t.Errorf("BenchmarkReal: Δallocs column = %q, want +20.0%%", alloc)
			}
		}
	}
}

// TestMedianResults covers the -median collapse: per-metric medians over
// repeated names (odd count = middle, even count = mean of middles),
// first-appearance ordering, single-run passthrough, custom-metric medians,
// and HasMem holding only when every run carried the allocation columns.
func TestMedianResults(t *testing.T) {
	in := []Result{
		{Name: "BenchmarkA", Procs: 2, Iterations: 10, NsPerOp: 300, BytesPerOp: 64, AllocsPerOp: 3, HasMem: true},
		{Name: "BenchmarkB", Procs: 1, Iterations: 1, NsPerOp: 50, Metrics: map[string]float64{"rounds/op": 4}},
		{Name: "BenchmarkA", Procs: 2, Iterations: 30, NsPerOp: 100, BytesPerOp: 32, AllocsPerOp: 3, HasMem: true},
		{Name: "BenchmarkB", Procs: 1, Iterations: 3, NsPerOp: 70, Metrics: map[string]float64{"rounds/op": 8}},
		{Name: "BenchmarkA", Procs: 2, Iterations: 20, NsPerOp: 200, BytesPerOp: 48, AllocsPerOp: 5, HasMem: true},
		{Name: "BenchmarkOnce", Procs: 4, Iterations: 7, NsPerOp: 11, BytesPerOp: 1, AllocsPerOp: 1, HasMem: true},
	}
	got := medianResults(in)
	want := []Result{
		{Name: "BenchmarkA", Procs: 2, Iterations: 20, NsPerOp: 200, BytesPerOp: 48, AllocsPerOp: 3, HasMem: true},
		{Name: "BenchmarkB", Procs: 1, Iterations: 2, NsPerOp: 60, Metrics: map[string]float64{"rounds/op": 6}},
		{Name: "BenchmarkOnce", Procs: 4, Iterations: 7, NsPerOp: 11, BytesPerOp: 1, AllocsPerOp: 1, HasMem: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("medianResults mismatch:\n got %+v\nwant %+v", got, want)
	}
	// A run missing -benchmem poisons HasMem for its name.
	mixed := medianResults([]Result{
		{Name: "BenchmarkC", NsPerOp: 1, HasMem: true},
		{Name: "BenchmarkC", NsPerOp: 3},
	})
	if len(mixed) != 1 || mixed[0].HasMem {
		t.Fatalf("mixed HasMem must collapse to false: %+v", mixed)
	}
}

// TestCompareResultsBadRegexp surfaces -warn compile errors.
func TestCompareResultsBadRegexp(t *testing.T) {
	var buf strings.Builder
	if _, err := compareResults(&buf, nil, nil, "(", 20); err == nil {
		t.Fatal("invalid -warn regexp must error")
	}
}
