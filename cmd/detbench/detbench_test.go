package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

func TestQuantileCeilRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.05, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Values printed by Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, m, q3 := quartiles(c.in)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	fps := func(in *inputs) []repro.Fingerprint {
		var out []repro.Fingerprint
		for _, g := range in.graphs {
			out = append(out, repro.FingerprintOf(g))
		}
		return out
	}
	for _, w := range workloads {
		sw := small(t, w.name)
		a, err := generate(sw, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(sw, 7)
		c, _ := generate(sw, 8)
		if !reflect.DeepEqual(a.plan, b.plan) || !slices.Equal(fps(a), fps(b)) {
			t.Errorf("%s: seed 7 gave two different request sequences", w.name)
		}
		if slices.Equal(fps(a), fps(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same graphs", w.name)
		}

		graphs := 0
		for _, f := range w.families {
			graphs += f.count
		}
		plan := buildPlan(w, graphs)
		streamed := map[string]int{}
		for _, r := range plan {
			if r.stream {
				streamed[r.problem]++
			}
		}
		for _, p := range problems {
			if want := len(plan) / len(problems) / 4; streamed[p] != want {
				t.Errorf("%s: %d streamed %s requests, want a quarter (%d)", w.name, streamed[p], p, want)
			}
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, s := range slices.Concat(endToEnd, perLayer) {
		if !name.MatchString(s.name) || !unit.MatchString(s.unit) || (s.better != "lower" && s.better != "higher") {
			t.Errorf("bad metric %+v", s)
		}
		if seen[s.name] {
			t.Errorf("metric %s declared twice", s.name)
		}
		seen[s.name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) {
			t.Errorf("bad workload name %q", w.name)
		}
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf, err := readBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
	var e2e, layers []metricSpec
	largest := 0.0
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\ncode emits %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\ncode emits %v", layers, perLayer)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
}

// small shrinks a workload to two graphs per family at n=256.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.families = slices.Clone(w.families)
	for i := range w.families {
		w.families[i].n = 256
		w.families[i].count = min(w.families[i].count, 2)
	}
	return w
}

// checkResult fails unless res checked out and holds every metric of specs.
func checkResult(t *testing.T, res *result, specs []metricSpec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.errs)
	}
	for _, s := range specs {
		if _, ok := res.Metrics[s.name]; !ok {
			t.Errorf("metric %s missing", s.name)
		}
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
	}
}

func TestSmokeInprocess(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res, err := runWorkload(config{w: small(t, "inproc-sparsify"), seed: 1, window: time.Second, traced: traced, setups: 1}, newTracer(time.Now()))
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, specsFor(traced))
		if !traced && res.Metrics["throughput_sps"].Value <= 0 {
			t.Errorf("throughput_sps = %v", res.Metrics["throughput_sps"].Value)
		}
	}
}

func TestSmokeServedTraced(t *testing.T) {
	tr := newTracer(time.Now())
	res, err := runWorkload(config{w: small(t, "serve-fp"), seed: 1, window: time.Second, traced: true, start: startInprocess, setups: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer)
	if v := res.Metrics["serve.completed_ratio"].Value; v != 1 {
		t.Errorf("serve.completed_ratio = %v, want 1", v)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path, "serve-fp", 1); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range doc.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"request.matching", "request.mis", "replay.sparsify.edges", "replay.hashfam.pairwise"} {
		if !names[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}

func TestTamperedResponseCountsAsFailed(t *testing.T) {
	var solves atomic.Int64
	start := func() (*backend, error) {
		s := serve.New(serve.Config{Engines: 2, Workers: 2})
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/solve" || solves.Add(1) != 40 {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			// Prefix a digit to the iteration count; the result is otherwise
			// intact and still decodes.
			body := bytes.Replace(rec.Body.Bytes(), []byte(`"iterations":`), []byte(`"iterations":1`), 1)
			w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
			w.WriteHeader(rec.Code)
			w.Write(body)
		}))
		return &backend{url: ts.URL, stop: func() error {
			ts.Close()
			s.Close()
			return nil
		}}, nil
	}
	res, err := runWorkload(config{w: small(t, "serve-fp"), seed: 1, window: time.Second, start: start, setups: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if solves.Load() < 40 {
		t.Fatalf("only %d requests; the tampered one was never sent", solves.Load())
	}
	if res.Failed != 1 || res.Correct {
		t.Errorf("failed=%d correct=%v, want the one tampered response counted: %v", res.Failed, res.Correct, res.errs)
	}
}

func TestCompareJudgesAgainstBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		r := newResult()
		r.Correct, r.Attempted = true, 1
		r.set("matching_p50_ms", p50)
		fr := fullRun{Runs: map[string]*result{}}
		for _, w := range workloads {
			fr.Runs[w.name] = r
		}
		b, err := json.Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(prefix string, vs ...float64) string {
		var paths []string
		for i, v := range vs {
			paths = append(paths, write(fmt.Sprintf("%s%d.json", prefix, i), v))
		}
		return strings.Join(paths, ",")
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	a := set("a", 10, 10.2, 9.8)
	for _, c := range []struct {
		b    string
		want bool
	}{
		{set("same", 10.1, 9.9, 10), false},
		{set("slow", 14, 14.2, 13.8), true},
	} {
		var out bytes.Buffer
		got, err := runCompare(&out, bench, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("regressed = %v, want %v:\n%s", got, c.want, out.String())
		}
	}
}
