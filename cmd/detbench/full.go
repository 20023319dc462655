package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// tracedSeconds is the window of a full run's traced pass.
const tracedSeconds = 10

// fullRun is the results file of a full run: every workload's untraced and
// traced result, keyed by workload name.
type fullRun struct {
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	TraceSeconds float64            `json:"trace_seconds"`
	GoVersion    string             `json:"go_version"`
	CPUs         int                `json:"cpus"`
	Runs         map[string]*result `json:"runs"`
	Traced       map[string]*result `json:"traced"`
}

// runAll runs every workload in a fresh child process of this binary, so
// peak RSS and GC state never carry over, first untraced and then traced. It
// writes the results file (synced and closed) and trace.json next to it
// before reporting whether every output checked out.
func runAll(out string, seed uint64, seconds float64, detservd string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	fr := &fullRun{Seed: seed, Seconds: seconds, TraceSeconds: tracedSeconds, GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
		Runs: map[string]*result{}, Traced: map[string]*result{}}
	ok := true
	var traces []string
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			length, flag, dst := seconds, "0", fr.Runs
			if traced {
				length, flag, dst = tracedSeconds, "1", fr.Traced
			}
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-detservd", detservd,
				"-seconds", strconv.FormatFloat(length, 'g', -1, 64), "-trace", flag}
			if traced {
				path := fmt.Sprintf("%s.%s.trace.json", out, w.name)
				traces = append(traces, path)
				args = append(args, "-trace-out", path)
			}
			res, err := runChild(self, args)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			dst[w.name] = res
			ok = ok && res.Correct
		}
	}
	b, err := json.MarshalIndent(fr, "", "  ")
	if err != nil {
		return false, err
	}
	if err := writeFile(out, append(b, '\n')); err != nil {
		return false, err
	}
	return ok, mergeTraces(filepath.Join(filepath.Dir(out), "trace.json"), seed, traces)
}

// runChild runs one workload in a child process, echoes its metric lines
// and parses its result: the last line, plus the detail lines before it.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	res := newResult()
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), res); jerr != nil {
		return nil, fmt.Errorf("no result line (exit: %v)", err)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
		f := strings.Fields(l)
		if len(f) != 4 {
			continue
		}
		if _, isMetric := res.Metrics[f[1]]; isMetric {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			res.note(f[1], v, f[3])
		}
	}
	return res, nil
}

// mergeTraces joins the per-workload span files into one trace.json and
// removes them.
func mergeTraces(path string, seed uint64, parts []string) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"seed\": %d, \"workloads\": [\n", seed)
	for i, p := range parts {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.Write(bytes.TrimSpace(b))
	}
	buf.WriteString("\n]}\n")
	if err := writeFile(path, buf.Bytes()); err != nil {
		return err
	}
	for _, p := range parts {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// writeFile writes, syncs and closes, checking each step, so a caller may
// exit right after without losing the file.
func writeFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
