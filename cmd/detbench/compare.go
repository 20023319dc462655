package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func loadRuns(list string) ([]*fullRun, error) {
	var runs []*fullRun
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var fr fullRun
		if err := json.Unmarshal(b, &fr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, &fr)
	}
	return runs, nil
}

// runCompare reports, per workload and end-to-end metric, the median and
// quartiles of set A and of set B, and judges B against A with the bounds
// of BENCHMARK.json: a metric whose median got worse by more than its bound
// regressed; one whose relative spread (IQR over median) in either set
// exceeds its bound is unresolved, unless every B run beats every A run, and
// so is every metric when a set has fewer than three runs to take a spread
// from. It reports whether anything regressed or any run failed its checks.
func runCompare(out io.Writer, benchPath, aList, bList string) (bool, error) {
	bf, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(aList)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(bList)
	if err != nil {
		return false, err
	}
	bad := false
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [Q1, Q3]\tB median [Q1, Q3]\tchange\tbound\tverdict")
	for _, w := range workloads {
		for set, runs := range [][]*fullRun{a, b} {
			for i, fr := range runs {
				if r := fr.Runs[w.name]; r == nil || !r.Correct || r.Failed > 0 {
					fmt.Fprintf(tw, "%s\t-\tset %c run %d missing or failed\t\t\t\tFAILED\n", w.name, 'A'+set, i+1)
					bad = true
				}
			}
		}
		for _, m := range bf.EndToEnd {
			av, bv := metricValues(a, w.name, m.Name), metricValues(b, w.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(av)
			q1b, mb, q3b := quartiles(bv)
			worse := per(mb-ma, ma)
			better := func(x, y float64) bool { return x < y }
			if m.Better == "higher" {
				worse = -worse
				better = func(x, y float64) bool { return x > y }
			}
			allBetter := true
			for _, x := range bv {
				for _, y := range av {
					allBetter = allBetter && better(x, y)
				}
			}
			spread := max(per(q3a-q1a, ma), per(q3b-q1b, mb))
			verdict := "ok"
			switch {
			case len(av) < 3 || len(bv) < 3:
				verdict = "unresolved (a set has fewer than 3 runs)"
			case spread > m.Bound && !allBetter:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			case worse > m.Bound:
				verdict = "REGRESSION"
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, ma, q1a, q3a, mb, q1b, q3b, 100*per(mb-ma, ma), 100*m.Bound, verdict)
		}
	}
	return bad, tw.Flush()
}

func metricValues(runs []*fullRun, workload, metric string) []float64 {
	var vs []float64
	for _, fr := range runs {
		if r := fr.Runs[workload]; r != nil {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}
