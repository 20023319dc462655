package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced interval: a solve or request (a root) with one child
// per observed round, or one replayed call into a layer. Times are ms since
// the run started.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Counts map[string]float64 `json:"counts,omitempty"`
	// Marks are the arrival times of a streamed request's round lines.
	Marks []float64 `json:"marks_ms,omitempty"`
}

// maxRootsPerName bounds the trace file: the first maxRootsPerName root
// spans of each name are kept with all their children, later ones are only
// counted. Metrics never read the trace, so the cap changes no number.
const maxRootsPerName = 10

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing. Window spans are built from the window's records after it ends.
type tracer struct {
	t0      time.Time
	spans   []span
	roots   map[string]int
	dropped int
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, roots: map[string]int{}} }

// add records a span and returns its id; parent 0 makes it a root. A root
// over its name's cap is only counted, and add returns 0 for it.
func (t *tracer) add(parent, req int, name string, start, end time.Time, counts map[string]float64, marks []float64) int {
	if t == nil {
		return 0
	}
	if parent == 0 {
		if t.roots[name] >= maxRootsPerName {
			t.dropped++
			return 0
		}
		t.roots[name]++
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)),
		Counts: counts, Marks: marks,
	})
	return id
}

// addWindow records the traced records of a measured window: a solve span
// with one child per observed round for in-process solves, a request span
// carrying the server's duration_ms and the round-line arrival times for
// served requests.
func (t *tracer) addWindow(win []*obs, served bool) {
	if t == nil {
		return
	}
	for _, o := range win {
		if !o.traced {
			continue
		}
		end := o.start.Add(o.latency)
		counts := map[string]float64{"graph": float64(o.req.graph), "ok": b2f(o.err == nil)}
		if served {
			counts["duration_ms"] = o.serverMS
			counts["stream"] = b2f(o.req.stream)
			var marks []float64
			for _, r := range o.rounds {
				marks = append(marks, ms(o.start.Add(r.at).Sub(t.t0)))
			}
			t.add(0, o.index, "request."+o.req.problem, o.start, end, counts, marks)
			continue
		}
		id := t.add(0, o.index, "solve."+o.req.problem, o.start, end, counts, nil)
		if id == 0 {
			continue
		}
		prev := o.start
		for _, r := range o.rounds {
			at := o.start.Add(r.at)
			t.add(id, o.index, "round", prev, at, map[string]float64{
				"seeds_tried": float64(r.seedsTried),
				"live_edges":  float64(r.liveEdges),
				"selected":    float64(r.selected),
				"batches":     float64(r.batches),
			}, nil)
			prev = at
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// write stores the spans as one JSON object, one span per line.
func (t *tracer) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\": %q, \"seed\": %d, \"dropped_roots\": %d, \"spans\": [", workload, seed, t.dropped)
	for i, s := range t.spans {
		b, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",")
		}
		w.WriteString("\n  ")
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
