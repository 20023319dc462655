package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro"
	"repro/internal/check"
	"repro/internal/serve"
)

// obs is the record of one solve or request: what was asked, how long it
// took, what the observer or the stream showed, and whether the output
// checked out.
type obs struct {
	req    request
	index  int // plan position, counting from the start of the plan
	traced bool
	start  time.Time
	// latency runs until the result is fully received; ttfr until the first
	// round event (in-process) or round line (streamed), 0 when none came.
	latency time.Duration
	ttfr    time.Duration
	// rounds holds every round of traced in-process solves and of streamed
	// requests.
	rounds                                         []round
	iterations, costRounds, peakWords, seedBatches int
	// Served requests only.
	serverMS            float64
	reqBytes, respBytes int
	resp                *serve.SolveResponse // non-streamed, first plan cycle only
	err                 error
}

type round struct {
	at                              time.Duration // since the request started
	liveEdges, seedsTried, selected int
	found                           bool
	batches, batchSeeds             int
}

func (o *obs) ok() bool { return o.err == nil }

// roundObserver is the bench-side repro.Observer: it timestamps the first
// round always and every round when full.
type roundObserver struct {
	start  time.Time
	first  time.Duration
	n      int
	full   bool
	rounds []round
}

func (o *roundObserver) OnRound(ev repro.RoundEvent) {
	at := time.Since(o.start)
	if o.n == 0 {
		o.first = at
	}
	o.n++
	if o.full {
		r := round{at: at, liveEdges: ev.LiveEdges, seedsTried: ev.SeedsTried, selected: ev.Selected, found: ev.SeedFound, batches: len(ev.Batches)}
		for _, b := range ev.Batches {
			r.batchSeeds += b.Seeds
		}
		o.rounds = append(o.rounds, r)
	}
}

// tracedAt picks the traced half of a traced run's requests: a pseudo-random
// bit of the plan index, so traced and untraced requests cover every cell.
func tracedAt(i int) bool { return mix64(uint64(i))&1 == 0 }

// window is what a loop sends: list cycled from position from, limit
// requests (0: no limit) or until deadline (zero: none).
type window struct {
	list       []request
	from       int
	limit      int
	deadline   time.Time
	interleave bool // trace every other request, chosen by tracedAt
}

// drive is the closed loop of every workload: one caller sending the
// window's requests in plan order, each once the previous one has finished.
// A second concurrent caller would make each request's latency depend on
// how it happened to overlap the other's, a mix that shifts from run to run
// and doubled the spread of the served p50s across runs.
func drive(win window, do func(*obs)) []*obs {
	var out []*obs
	for k := 0; win.limit == 0 || k < win.limit; k++ {
		if !win.deadline.IsZero() && !time.Now().Before(win.deadline) {
			break
		}
		i := win.from + k
		o := &obs{req: win.list[i%len(win.list)], index: i, traced: win.interleave && tracedAt(i)}
		do(o)
		out = append(out, o)
	}
	return out
}

// runInproc solves on the prepared graphs, checking each result against its
// reference.
func runInproc(pgs []*repro.PreparedGraph, in *inputs, win window) []*obs {
	return drive(win, func(o *obs) {
		ob := &roundObserver{full: o.traced}
		o.start = time.Now()
		ob.start = o.start
		got, err := solve(context.Background(), pgs[o.req.graph], o.req.problem, ob)
		o.latency = time.Since(o.start)
		o.ttfr, o.rounds = ob.first, ob.rounds
		if err == nil {
			o.iterations, o.costRounds, o.peakWords, o.seedBatches = got.iterations, got.costRounds, got.peakWords, got.seedBatches
			err = in.checkInproc(o.req, got, ob.n)
		}
		o.err = err
	})
}

func (in *inputs) checkInproc(req request, got *reference, events int) error {
	ref := in.ref(req.graph, req.problem)
	switch {
	case got.digest != ref.digest:
		return fmt.Errorf("graph %d %s: result differs from the reference solve", req.graph, req.problem)
	case events != ref.events:
		return fmt.Errorf("graph %d %s: %d observed rounds, reference has %d", req.graph, req.problem, events, ref.events)
	}
	return nil
}

// setupInproc is one timed in-process set-up: a new Engine, every graph
// prepared, one untimed-in-the-window warm-up solve per distinct request.
func setupInproc(w workload, in *inputs) ([]*repro.PreparedGraph, []*obs, time.Duration, error) {
	start := time.Now()
	eng := repro.NewEngine(nil)
	pgs := make([]*repro.PreparedGraph, len(in.graphs))
	for i, g := range in.graphs {
		pg, err := eng.Prepare(g)
		if err != nil {
			return nil, nil, 0, err
		}
		pgs[i] = pg
	}
	ws := w.warmupPlan(in.plan)
	warm := runInproc(pgs, in, window{list: ws, limit: len(ws)})
	return pgs, warm, time.Since(start), nil
}

// backend is a running solve server: a detservd child or, in tests and the
// in-process workloads' serving replay, serve.New behind httptest.
type backend struct {
	url  string
	pid  int // process whose CPU time and peak RSS are the server's; 0 is this one
	stop func() error
}

type startFunc func() (*backend, error)

// startDetservd starts bin on a port a bench-side :0 listen picked and
// waits until /healthz answers.
func startDetservd(bin string) startFunc {
	return func() (*backend, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, "-addr", addr, "-engines", "2", "-workers", "2")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		// Best effort should this process die without stopping the child;
		// the normal path stops it explicitly.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start detservd: %w", err)
		}
		exited := make(chan struct{})
		var waitErr error
		go func() {
			waitErr = cmd.Wait()
			close(exited)
		}()
		b := &backend{url: "http://" + addr, pid: cmd.Process.Pid, stop: func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait reports that
			select {
			case <-exited:
				return waitErr
			case <-time.After(10 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				return errors.New("detservd ignored SIGTERM for 10s; killed")
			}
		}}
		if err := waitHealthy(b.url, exited); err != nil {
			_ = b.stop()
			return nil, err
		}
		return b, nil
	}
}

func waitHealthy(url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("detservd exited before becoming healthy")
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not healthy after 30s", url)
}

// startInprocess serves from this process, with detservd's pool shape.
func startInprocess() (*backend, error) {
	s := serve.New(serve.Config{Engines: 2, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	return &backend{url: ts.URL, stop: func() error {
		ts.Close()
		s.Close()
		return nil
	}}, nil
}

// client drives one backend's HTTP API for one workload.
type client struct {
	url string
	hc  *http.Client
	in  *inputs
	fps []string // fingerprint-addressed workloads: per graph
}

func newClient(url string, in *inputs) *client {
	return &client{url: url, in: in, hc: &http.Client{Transport: &http.Transport{}}}
}

func upload(g *repro.Graph) *serve.GraphUpload {
	u := &serve.GraphUpload{N: g.N(), Edges: make([][2]int32, 0, g.M())}
	for _, e := range g.Edges() {
		u.Edges = append(u.Edges, [2]int32{e.U, e.V})
	}
	return u
}

// uploadAll registers every graph and checks the server fingerprinted each
// one as the library does.
func (c *client) uploadAll() error {
	c.fps = c.fps[:0]
	for i, g := range c.in.graphs {
		var ur serve.UploadResponse
		if err := c.post("/v1/graphs", upload(g), &ur); err != nil {
			return fmt.Errorf("upload graph %d: %w", i, err)
		}
		if want := repro.FingerprintOf(g).String(); ur.Fingerprint != want {
			return fmt.Errorf("upload graph %d: fingerprint %s, want %s", i, ur.Fingerprint, want)
		}
		c.fps = append(c.fps, ur.Fingerprint)
	}
	return nil
}

func (c *client) post(path string, body, into any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

func (c *client) status() (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.hc.Get(c.url + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/status: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// body is the exact request body the plan entry sends.
func (c *client) body(r request) []byte {
	if c.in.graphJSON == nil {
		b, _ := json.Marshal(serve.SolveRequest{Problem: r.problem, Fingerprint: c.fps[r.graph], Stream: r.stream}) // marshalling this struct cannot fail
		return b
	}
	var buf bytes.Buffer
	buf.WriteString(`{"problem":"` + r.problem + `","stream":` + strconv.FormatBool(r.stream) + `,"graph":`)
	buf.Write(c.in.graphJSON[r.graph])
	buf.WriteString("}")
	return buf.Bytes()
}

// run sends the window's requests over one connection.
func (c *client) run(win window) []*obs { return drive(win, c.do) }

// do sends one request and checks its response.
func (c *client) do(o *obs) {
	body := c.body(o.req)
	o.reqBytes = len(body)
	o.start = time.Now()
	resp, err := c.hc.Post(c.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		o.latency, o.err = time.Since(o.start), err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body) // only for the error message
		o.latency, o.err = time.Since(o.start), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return
	}
	var result *serve.SolveResponse
	lines := 0
	if o.req.stream {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 64<<20)
		for sc.Scan() {
			at := time.Since(o.start)
			o.respBytes += len(sc.Bytes()) + 1
			var ev serve.StreamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				o.latency, o.err = time.Since(o.start), fmt.Errorf("bad stream line: %w", err)
				return
			}
			switch ev.Type {
			case "round":
				if lines == 0 {
					o.ttfr = at
				}
				lines++
				u := ev.Round
				if u == nil {
					u = &serve.RoundUpdate{}
				}
				r := round{at: at, liveEdges: u.LiveEdges, seedsTried: u.SeedsTried, selected: u.Selected, found: u.SeedFound, batches: len(u.SeedBatches)}
				for _, b := range u.SeedBatches {
					r.batchSeeds += b.Seeds
				}
				o.rounds = append(o.rounds, r)
			case "result":
				result = ev.Result
			case "error":
				o.latency, o.err = time.Since(o.start), fmt.Errorf("stream error %d: %s", ev.Status, ev.Error)
				return
			}
		}
		o.latency = time.Since(o.start)
		if err := sc.Err(); err != nil {
			o.err = err
			return
		}
		if result == nil {
			o.err = errors.New("stream ended without a result line")
			return
		}
	} else {
		data, err := io.ReadAll(resp.Body)
		o.latency = time.Since(o.start)
		if err != nil {
			o.err = err
			return
		}
		o.respBytes = len(data)
		result = new(serve.SolveResponse)
		if err := json.Unmarshal(data, result); err != nil {
			o.err = fmt.Errorf("bad response: %w", err)
			return
		}
		if o.index < len(c.in.plan) {
			o.resp = result
		}
	}
	o.serverMS, o.iterations = result.DurationMS, result.Iterations
	if result.Costs != nil {
		o.costRounds, o.peakWords, o.seedBatches = result.Costs.Rounds, result.Costs.PeakMachineWords, result.Costs.SeedBatches
	}
	o.err = c.in.checkServed(o.req, result, lines)
}

// checkServed holds a served response to the reference solve of its cell
// when one exists (bit-identical output and cost report, and for streams the
// in-process round count), and otherwise checks maximality against the
// generated graph.
func (in *inputs) checkServed(req request, r *serve.SolveResponse, lines int) error {
	if r.Problem != req.problem {
		return fmt.Errorf("graph %d: asked for %s, got %s", req.graph, req.problem, r.Problem)
	}
	if ref := in.ref(req.graph, req.problem); ref != nil {
		if responseDigest(r) != ref.digest {
			return fmt.Errorf("graph %d %s: served result differs from the direct Engine solve", req.graph, req.problem)
		}
		if req.stream && lines != ref.events {
			return fmt.Errorf("graph %d %s: %d streamed rounds, in-process solve has %d", req.graph, req.problem, lines, ref.events)
		}
		return nil
	}
	g := in.graphs[req.graph]
	ok, reason := true, ""
	if req.problem == serve.ProblemMatching {
		edges := make([]repro.Edge, len(r.Edges))
		for i, e := range r.Edges {
			edges[i] = repro.Edge{U: e[0], V: e[1]}
		}
		ok, reason = check.IsMaximalMatching(g, edges)
	} else {
		ok, reason = check.IsMaximalIS(g, r.Nodes)
	}
	if !ok {
		return fmt.Errorf("graph %d %s: %s", req.graph, req.problem, reason)
	}
	return nil
}

// setupServed is one timed served set-up: start the server, wait until it
// is healthy, upload the graphs (fingerprint workloads), then send the
// warm-up requests.
func setupServed(start startFunc, w workload, in *inputs) (*client, *backend, []*obs, time.Duration, error) {
	t0 := time.Now()
	b, err := start()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	c := newClient(b.url, in)
	if !w.inline {
		if err := c.uploadAll(); err != nil {
			_ = b.stop()
			return nil, nil, nil, 0, err
		}
	}
	ws := w.warmupPlan(in.plan)
	warm := c.run(window{list: ws, limit: len(ws)})
	return c, b, warm, time.Since(t0), nil
}
