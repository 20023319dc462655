// Package serve is the warm-Engine serving layer behind cmd/detservd: one
// process multiplexing mixed matching/MIS traffic over a pool of warm
// repro.Engines, the deployment shape the ROADMAP's "one process, millions
// of requests" north star describes and PR 5's request-scoped API was built
// for.
//
// The layer adds exactly three things on top of the Engine contract, and
// changes nothing underneath it:
//
//   - Admission control, per engine. Every engine in the pool owns a
//     bounded queue (Config.QueueDepth each); a request whose home engine's
//     queue is full is rejected immediately with repro.ErrOverloaded
//     (HTTP 429) — it never touches an Engine, so overload can not corrupt
//     pooled solve state, and a hot fingerprint flooding one engine's queue
//     cannot reject (or delay) traffic for graphs that live on other
//     engines. A fixed worker pool (Config.Workers) drains the queues
//     through a deterministic deficit round-robin scheduler: engines are
//     visited in index order and an engine with a backlog is granted at
//     most schedQuantum consecutive dispatches while any other engine has
//     queued work, so a cold graph's short solve is dispatched after a
//     bounded number of scheduler turns no matter how deep a hot
//     fingerprint's backlog of long sparsify-strategy solves is.
//   - Per-request deadlines. timeout_ms (clamped by Config.MaxTimeout,
//     defaulted by Config.DefaultTimeout) becomes a context deadline that
//     the Engine polls at its existing round and seed-batch boundaries; an
//     expired request returns repro.ErrDeadlineExceeded (HTTP 504) and
//     leaves its engine warm, exactly like any canceled solve. The deadline
//     clock starts at admission, so time spent queued on the home engine
//     counts against the request's budget, never extends it.
//   - Content-addressed graphs. POST /v1/graphs parses an edge list once,
//     registers it via Engine.Prepare, and returns the content fingerprint;
//     solves may then name the graph by fingerprint instead of re-uploading
//     it. Identical uploads (any edge order) share one parsed CSR.
//
// Requests are routed to engines by graph fingerprint (fp mod engine
// count), so repeated traffic on the same graph lands on the same warm
// engine and prepared-graph cache; admission and overflow are decided on
// that same home queue. Streaming solves (stream: true) emit one NDJSON
// line per completed round over the deterministic observer seam, then a
// final result or error line; a client that disconnects mid-stream cancels
// its solve at the next round or seed-batch boundary and the abandoned
// solve's scratch context is Reset and re-pooled, keeping the engine warm.
//
// Determinism: the server never reorders or batches solve work — each
// request is one Engine solve with the request's own options — so served
// results are bit-identical to calling the Engine directly with the same
// graph and options, which is pinned by the tests in this package.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Problem names accepted by SolveRequest.Problem.
const (
	ProblemMatching = "matching"
	ProblemMIS      = "mis"
)

// Errors introduced by the serving layer itself. Solve-path errors from the
// Engine (repro.ErrCanceled, repro.ErrDeadlineExceeded, ...) pass through
// unwrapped; HTTPStatus maps the union onto status codes.
var (
	// ErrBadRequest marks a malformed or invalid request (unknown problem,
	// out-of-range option, bad edge list); HTTP 400.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrTooLarge marks a request over Config.MaxBodyBytes: a body longer
	// than the limit, or a graph whose CSR offset array (4·(n+1) bytes)
	// would be larger than the limit; HTTP 413.
	ErrTooLarge = errors.New("serve: request too large")
	// ErrUnknownFingerprint marks a solve-by-fingerprint request naming a
	// graph that was never uploaded (or was evicted); HTTP 404.
	ErrUnknownFingerprint = errors.New("serve: unknown graph fingerprint")
	// ErrServerClosed marks a request caught by shutdown; HTTP 503.
	ErrServerClosed = errors.New("serve: server closed")
)

// Config sizes a Server. The zero value serves with one engine, one worker
// per logical CPU, a queue of 64 and no default deadline.
type Config struct {
	// Options is the base solver configuration every engine is built with;
	// nil means repro defaults. Per-request options layer on top exactly as
	// repro.SolveOption does.
	Options *repro.Options
	// Engines is the number of warm engines in the pool (default 1).
	// Requests route by graph fingerprint mod Engines, so traffic on one
	// graph always hits the same warm engine and prepared-graph cache.
	Engines int
	// Workers is the number of concurrent solves (default GOMAXPROCS). The
	// pool is shared: workers drain all engine queues through the deficit
	// round-robin scheduler.
	Workers int
	// QueueDepth bounds each engine's admission queue holding accepted-but-
	// not-yet-running requests (default 64 per engine). A full home queue
	// rejects with repro.ErrOverloaded; other engines' queues are
	// unaffected.
	QueueDepth int
	// DefaultTimeout applies to requests that carry no timeout_ms; 0 means
	// no deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps every request deadline (including requests with no
	// timeout at all, which makes it a hard per-request ceiling); 0 means
	// no clamp.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 64 MiB), and with them
	// the node count of a graph: one whose CSR offset array, 4·(n+1)
	// bytes, would be larger than the limit is rejected with ErrTooLarge
	// before anything is allocated for it.
	MaxBodyBytes int64
}

// job is one admitted unit of work: run executes on a worker; abort is
// invoked instead if shutdown drains the job before a worker picks it up.
// done closes after whichever of the two ran. engine is the index of the
// home engine whose queue admitted the job.
type job struct {
	engine int
	run    func()
	abort  func(error)
	done   chan struct{}
}

// schedQuantum is the deficit round-robin grant: the number of consecutive
// dispatches one engine's queue may take while any other engine has queued
// work. A grant above 1 keeps a small amount of dispatch affinity for a
// backlogged engine (its prepared cache and scratch stay hot) while still
// bounding how long any other engine's head-of-queue request can wait: a
// job that is at position k of its engine's queue is dispatched after at
// most k + schedQuantum·(Engines-1)·k scheduler turns, independent of how
// deep the other queues are.
const schedQuantum = 2

// engineQueue is one engine's admission queue plus its counters; all fields
// are guarded by Server.mu.
type engineQueue struct {
	jobs     []*job // FIFO of admitted-but-not-started work
	accepted int64
	rejected int64
	served   int64 // jobs a worker ran to completion (any outcome)
}

// Server multiplexes solve traffic over warm engines. Construct with New,
// serve HTTP through Handler, and stop with Close. The in-process entry
// points (Solve, Upload) are the same paths the HTTP handlers use — tests
// drive them directly to compare served results against direct Engine
// calls.
type Server struct {
	cfg     Config
	engines []*repro.Engine

	// Scheduler state: per-engine queues drained by the worker pool in
	// deficit round-robin order. mu guards queues, cursor, deficit and
	// closed; cond wakes idle workers on enqueue and Close.
	mu      sync.Mutex
	cond    *sync.Cond
	queues  []*engineQueue
	cursor  int // engine the scheduler is currently serving
	deficit int // dispatches the cursor engine may still take this turn
	closed  bool

	wg        sync.WaitGroup
	closeOnce sync.Once

	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	canceled  atomic.Int64
	expired   atomic.Int64
	failed    atomic.Int64
	uploads   atomic.Int64
	shared    atomic.Int64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Engines <= 0 {
		cfg.Engines = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	s := &Server{cfg: cfg}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Engines; i++ {
		s.engines = append(s.engines, repro.NewEngine(cfg.Options))
		s.queues = append(s.queues, &engineQueue{})
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops the worker pool: in-flight solves run to completion, then
// every engine queue is drained — jobs that never started fail with
// ErrServerClosed. Safe to call twice.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.cond.Broadcast()
	})
	s.wg.Wait()
	s.mu.Lock()
	var drained []*job
	for _, q := range s.queues {
		drained = append(drained, q.jobs...)
		q.jobs = nil
	}
	s.mu.Unlock()
	for _, j := range drained {
		j.abort(ErrServerClosed)
		close(j.done)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.nextJob()
		if !ok {
			return
		}
		j.run()
		s.mu.Lock()
		s.queues[j.engine].served++
		s.mu.Unlock()
		close(j.done)
	}
}

// nextJob blocks until the scheduler hands this worker a job, or returns
// ok=false once the server is closed (queued jobs are then drained by
// Close, not by workers).
func (s *Server) nextJob() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, false
		}
		if j, ok := s.pickLocked(); ok {
			return j, true
		}
		s.cond.Wait()
	}
}

// pickLocked is the deficit round-robin dispatch decision: starting at the
// cursor engine, the first non-empty queue is served. Entering a queue
// grants it schedQuantum dispatches; each dispatch spends one, and the
// cursor moves on when the grant is spent or the queue empties. The walk
// order depends only on engine index and the grant counter, so for any
// fixed arrival order the dispatch order is deterministic — and no engine's
// head-of-queue job ever waits more than schedQuantum dispatches per
// backlogged sibling engine.
func (s *Server) pickLocked() (*job, bool) {
	n := len(s.queues)
	for scanned := 0; scanned < n; scanned++ {
		q := s.queues[s.cursor]
		if len(q.jobs) == 0 {
			s.cursor = (s.cursor + 1) % n
			s.deficit = 0
			continue
		}
		if s.deficit <= 0 {
			s.deficit = schedQuantum
		}
		j := q.jobs[0]
		q.jobs[0] = nil // release the reference before reslicing
		q.jobs = q.jobs[1:]
		s.deficit--
		if s.deficit == 0 || len(q.jobs) == 0 {
			s.cursor = (s.cursor + 1) % n
			s.deficit = 0
		}
		return j, true
	}
	return nil, false
}

// enqueue admits a job onto its home engine's queue or rejects it without
// blocking: ErrServerClosed after Close, repro.ErrOverloaded when that
// engine's queue is full (other engines' queues are not consulted — a hot
// engine's overflow never spills onto a cold one). The caller waits on the
// returned job's done channel (always closed eventually: by the worker
// that ran it or by Close's drain).
func (s *Server) enqueue(engine int, run func(), abort func(error)) (*job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	q := s.queues[engine]
	if len(q.jobs) >= s.cfg.QueueDepth {
		q.rejected++
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, fmt.Errorf("%w: engine %d admission queue full (depth %d)", repro.ErrOverloaded, engine, s.cfg.QueueDepth)
	}
	j := &job{engine: engine, run: run, abort: abort, done: make(chan struct{})}
	q.jobs = append(q.jobs, j)
	q.accepted++
	s.mu.Unlock()
	s.accepted.Add(1)
	s.cond.Signal()
	return j, nil
}

// engineIndex routes a fingerprint to its home engine's index.
func (s *Server) engineIndex(fp repro.Fingerprint) int {
	return int(uint64(fp) % uint64(len(s.engines)))
}

// engineFor routes a fingerprint to its home engine.
func (s *Server) engineFor(fp repro.Fingerprint) *repro.Engine {
	return s.engines[s.engineIndex(fp)]
}

// GraphUpload is the wire form of a graph: n nodes and an undirected edge
// list (duplicates and self loops are dropped, exactly like
// repro.FromEdges).
type GraphUpload struct {
	N     int        `json:"n"`
	Edges [][2]int32 `json:"edges"`
}

// build validates the upload and builds its CSR. A node count whose offset
// array, 4·(n+1) bytes, would be larger than maxBody is rejected before
// any O(n) allocation: otherwise a 30-byte body could make FromEdges
// allocate gigabytes.
func (u *GraphUpload) build(maxBody int64) (*repro.Graph, error) {
	if u.N < 0 {
		return nil, fmt.Errorf("%w: negative node count %d", ErrBadRequest, u.N)
	}
	if int64(u.N) >= maxBody/4 {
		return nil, fmt.Errorf("%w: %d nodes; a %d-byte body limit allows at most %d", ErrTooLarge, u.N, maxBody, maxBody/4-1)
	}
	edges := make([]repro.Edge, len(u.Edges))
	for i, e := range u.Edges {
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= u.N || int(e[1]) >= u.N {
			return nil, fmt.Errorf("%w: edge %d = (%d,%d) out of range [0,%d)", ErrBadRequest, i, e[0], e[1], u.N)
		}
		edges[i] = repro.Edge{U: repro.NodeID(e[0]), V: repro.NodeID(e[1])}
	}
	return repro.FromEdges(u.N, edges), nil
}

// UploadResponse names the registered graph.
type UploadResponse struct {
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	// Shared reports a dedup hit: this content was already prepared, and
	// the upload's parse was dropped in favour of the cached CSR.
	Shared bool `json:"shared"`
}

// Upload registers a graph and returns its fingerprint; the in-process form
// of POST /v1/graphs. Errors: ErrBadRequest, or ErrTooLarge for a graph
// with 4·(n+1) > Config.MaxBodyBytes, rejected before any O(n) allocation.
func (s *Server) Upload(u *GraphUpload) (*UploadResponse, error) {
	if u == nil {
		return nil, fmt.Errorf("%w: missing graph", ErrBadRequest)
	}
	g, err := u.build(s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	pg, err := s.engineFor(repro.FingerprintOf(g)).Prepare(g)
	if err != nil {
		return nil, err
	}
	// g was built above, so the handle holds it exactly when nothing was
	// shared: a new cache entry, or a private handle for a graph whose
	// fingerprint collides with a different cached one.
	shared := pg.Graph() != g
	s.uploads.Add(1)
	if shared {
		s.shared.Add(1)
	}
	return &UploadResponse{
		Fingerprint: pg.Fingerprint().String(),
		N:           pg.N(),
		M:           pg.M(),
		Shared:      shared,
	}, nil
}

// SolveOptions is the wire form of per-request solver overrides; zero/nil
// fields inherit the server's base Options.
type SolveOptions struct {
	Strategy      string  `json:"strategy,omitempty"`
	Parallelism   *int    `json:"parallelism,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Slack         float64 `json:"slack,omitempty"`
	ThresholdFrac float64 `json:"threshold_frac,omitempty"`
}

// solveOptions converts to repro.SolveOption. The strategy name and the
// numeric ranges (epsilon, slack, threshold_frac) are
// repro.ValidateOptions' to check, which validate runs on the result.
func (o *SolveOptions) solveOptions() ([]repro.SolveOption, error) {
	if o == nil {
		return nil, nil
	}
	var opts []repro.SolveOption
	if o.Strategy != "" {
		opts = append(opts, repro.WithStrategy(repro.Strategy(o.Strategy)))
	}
	if o.Parallelism != nil {
		if *o.Parallelism < 0 {
			return nil, fmt.Errorf("%w: parallelism %d out of range", ErrBadRequest, *o.Parallelism)
		}
		opts = append(opts, repro.WithParallelism(*o.Parallelism))
	}
	if o.Epsilon != 0 {
		opts = append(opts, repro.WithEpsilon(o.Epsilon))
	}
	if o.Slack != 0 {
		opts = append(opts, repro.WithSlack(o.Slack))
	}
	if o.ThresholdFrac != 0 {
		opts = append(opts, repro.WithThresholdFrac(o.ThresholdFrac))
	}
	return opts, nil
}

// SolveRequest is one solve: a problem, a graph (inline or by fingerprint),
// optional per-request solver options, an optional deadline, and the
// streaming flag (HTTP only).
type SolveRequest struct {
	Problem     string        `json:"problem"`
	Graph       *GraphUpload  `json:"graph,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Options     *SolveOptions `json:"options,omitempty"`
	TimeoutMS   int64         `json:"timeout_ms,omitempty"`
	Stream      bool          `json:"stream,omitempty"`
}

// SolveResponse is a completed solve. Edges is set for matching, Nodes for
// MIS; Costs mirrors the solve's repro.CostReport, which every solve has.
type SolveResponse struct {
	Problem     string            `json:"problem"`
	Fingerprint string            `json:"fingerprint"`
	Strategy    string            `json:"strategy"`
	Iterations  int               `json:"iterations"`
	Edges       [][2]int32        `json:"edges,omitempty"`
	Nodes       []int32           `json:"nodes,omitempty"`
	Costs       *repro.CostReport `json:"costs"`
	DurationMS  float64           `json:"duration_ms"`
}

// prepared resolves the request's graph to a PreparedGraph: inline graphs
// are registered (sharing any previously uploaded identical content),
// fingerprints are looked up on their home engine.
func (s *Server) prepared(req *SolveRequest) (*repro.PreparedGraph, error) {
	switch {
	case req.Graph != nil:
		g, err := req.Graph.build(s.cfg.MaxBodyBytes)
		if err != nil {
			return nil, err
		}
		return s.engineFor(repro.FingerprintOf(g)).Prepare(g)
	case req.Fingerprint != "":
		fp, err := repro.ParseFingerprint(req.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		pg, ok := s.engineFor(fp).Prepared(fp)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownFingerprint, req.Fingerprint)
		}
		return pg, nil
	default:
		return nil, fmt.Errorf("%w: request needs graph or fingerprint", ErrBadRequest)
	}
}

// requestContext applies the request's deadline policy. The deadline covers
// queue wait as well as solve time: an admission backlog eats into the
// request's budget, it does not extend it.
func (s *Server) requestContext(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// runSolve executes one admitted solve on its prepared graph. It runs on a
// worker goroutine; obs (streaming only) receives the observer events.
func (s *Server) runSolve(ctx context.Context, pg *repro.PreparedGraph, problem string, opts []repro.SolveOption, obs repro.Observer) (*SolveResponse, error) {
	if obs != nil {
		opts = append(opts, repro.WithObserver(obs))
	}
	start := time.Now()
	resp := &SolveResponse{Problem: problem, Fingerprint: pg.Fingerprint().String()}
	switch problem {
	case ProblemMatching:
		res, err := pg.MaximalMatchingCtx(ctx, opts...)
		if err != nil {
			return nil, err
		}
		resp.Strategy = string(res.Strategy)
		resp.Iterations = res.Iterations
		resp.Costs = res.Costs
		resp.Edges = make([][2]int32, len(res.Edges))
		for i, e := range res.Edges {
			resp.Edges[i] = [2]int32{int32(e.U), int32(e.V)}
		}
	case ProblemMIS:
		res, err := pg.MaximalIndependentSetCtx(ctx, opts...)
		if err != nil {
			return nil, err
		}
		resp.Strategy = string(res.Strategy)
		resp.Iterations = res.Iterations
		resp.Costs = res.Costs
		resp.Nodes = make([]int32, len(res.Nodes))
		for i, v := range res.Nodes {
			resp.Nodes[i] = int32(v)
		}
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}

// validate front-loads the request checks shared by both solve paths, so
// admission control only ever queues runnable work. Options (strategy name
// and numeric ranges) are checked here rather than left to the solve: a
// streamed response commits its 200 before the solve runs. They are checked
// before the graph is resolved, so a rejected request never prepares an
// inline graph into an engine's cache.
func (s *Server) validate(req *SolveRequest) (*repro.PreparedGraph, []repro.SolveOption, error) {
	if req.Problem != ProblemMatching && req.Problem != ProblemMIS {
		return nil, nil, fmt.Errorf("%w: unknown problem %q", ErrBadRequest, req.Problem)
	}
	opts, err := req.Options.solveOptions()
	if err != nil {
		return nil, nil, err
	}
	if err := repro.ValidateOptions(opts...); err != nil {
		return nil, nil, err
	}
	pg, err := s.prepared(req)
	if err != nil {
		return nil, nil, err
	}
	return pg, opts, nil
}

// record classifies a finished solve for /v1/status.
func (s *Server) record(err error) {
	switch {
	case err == nil:
		s.completed.Add(1)
	case errors.Is(err, repro.ErrDeadlineExceeded):
		s.expired.Add(1)
	case errors.Is(err, repro.ErrCanceled):
		s.canceled.Add(1)
	default:
		s.failed.Add(1)
	}
}

// Solve runs one request through admission control and a pooled worker,
// blocking until it finishes; the in-process form of POST /v1/solve (minus
// streaming). Errors: repro.ErrOverloaded (queue full),
// repro.ErrDeadlineExceeded / repro.ErrCanceled (deadline or caller
// cancellation, at round/seed-batch boundaries), ErrBadRequest,
// ErrTooLarge (an inline graph with 4·(n+1) > Config.MaxBodyBytes, rejected
// before any O(n) allocation), ErrUnknownFingerprint, ErrServerClosed, or
// solve-path errors verbatim.
func (s *Server) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	pg, opts, err := s.validate(req)
	if err != nil {
		return nil, err
	}
	sctx, cancel := s.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	var resp *SolveResponse
	var serr error
	j, err := s.enqueue(s.engineIndex(pg.Fingerprint()), func() {
		resp, serr = s.runSolve(sctx, pg, req.Problem, opts, nil)
	}, func(e error) { serr = e })
	if err != nil {
		return nil, err
	}
	<-j.done
	s.record(serr)
	if serr != nil {
		return nil, serr
	}
	return resp, nil
}

// EngineStats is one engine's slice of the /v1/status snapshot: its queue
// occupancy and per-engine admission counters. Served counts jobs a worker
// ran to completion regardless of outcome (completed, canceled, expired or
// failed solves all count — the engine did the work).
type EngineStats struct {
	Engine         int   `json:"engine"`
	QueueDepth     int   `json:"queue_depth"`
	Queued         int   `json:"queued"`
	Accepted       int64 `json:"accepted"`
	Rejected       int64 `json:"rejected"`
	Served         int64 `json:"served"`
	PreparedGraphs int   `json:"prepared_graphs"`
}

// Stats is the /v1/status snapshot. The top-level counters aggregate across
// engines; PerEngine breaks admission down by home engine, which is where it
// is decided — QueueDepth and Queued are per-engine quantities, the
// top-level fields report the per-engine depth and the total occupancy.
type Stats struct {
	Engines        int           `json:"engines"`
	Workers        int           `json:"workers"`
	QueueDepth     int           `json:"queue_depth"`
	Queued         int           `json:"queued"`
	Accepted       int64         `json:"accepted"`
	Rejected       int64         `json:"rejected"`
	Completed      int64         `json:"completed"`
	Canceled       int64         `json:"canceled"`
	Expired        int64         `json:"expired"`
	Failed         int64         `json:"failed"`
	Uploads        int64         `json:"uploads"`
	SharedUploads  int64         `json:"shared_uploads"`
	PreparedGraphs int           `json:"prepared_graphs"`
	PerEngine      []EngineStats `json:"per_engine"`
}

// Stats returns current counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Engines:       len(s.engines),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		Accepted:      s.accepted.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		Canceled:      s.canceled.Load(),
		Expired:       s.expired.Load(),
		Failed:        s.failed.Load(),
		Uploads:       s.uploads.Load(),
		SharedUploads: s.shared.Load(),
	}
	s.mu.Lock()
	for i, q := range s.queues {
		st.PerEngine = append(st.PerEngine, EngineStats{
			Engine:     i,
			QueueDepth: s.cfg.QueueDepth,
			Queued:     len(q.jobs),
			Accepted:   q.accepted,
			Rejected:   q.rejected,
			Served:     q.served,
		})
		st.Queued += len(q.jobs)
	}
	s.mu.Unlock()
	for i, e := range s.engines {
		n := e.PreparedCount()
		st.PerEngine[i].PreparedGraphs = n
		st.PreparedGraphs += n
	}
	return st
}

// HTTPStatus maps the serving error taxonomy onto status codes: 429
// overloaded, 504 deadline expired, 499 (nginx convention) client
// cancellation, 413 too large, 400 bad request / invalid option / unknown
// strategy, 404 unknown fingerprint, 503 shutdown, 500 anything else.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, repro.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, repro.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, repro.ErrCanceled):
		return 499 // client closed request
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest), errors.Is(err, repro.ErrInvalidOption), errors.Is(err, repro.ErrUnknownStrategy), errors.Is(err, repro.ErrNilGraph):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownFingerprint):
		return http.StatusNotFound
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := HTTPStatus(err)
	writeJSON(w, status, errorBody{Error: err.Error(), Status: status})
}

// Handler returns the HTTP surface:
//
//	GET  /healthz     liveness
//	GET  /v1/status   counters incl. per-engine queue state (Stats)
//	POST /v1/graphs   upload a graph, get its fingerprint (UploadResponse)
//	POST /v1/solve    run a solve (SolveRequest → SolveResponse);
//	                  stream: true switches to NDJSON round events
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/graphs", s.handleUpload)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	return mux
}

// decode reads the whole body and decodes it into v (decodeBody). The body
// is read to EOF, which matters beyond decoding: net/http only starts the
// connection's background read — the mechanism that cancels r.Context()
// when the client disconnects — once the request body has been consumed.
// Without it an abandoned streaming solve would never see its context
// canceled and would burn a worker until the solve finished on its own.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("%w: body over the %d-byte limit", ErrTooLarge, tooLarge.Limit)
		}
		return fmt.Errorf("%w: reading body: %v", ErrBadRequest, err)
	}
	if err := decodeBody(body, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var u GraphUpload
	if err := s.decode(w, r, &u); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.Upload(&u)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Stream {
		s.streamSolve(w, r, &req)
		return
	}
	resp, err := s.Solve(r.Context(), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// RoundUpdate is the wire form of one observer round event, including the
// seed-batch sub-events and incremental cost counters of this PR's observer
// extension.
type RoundUpdate struct {
	Algorithm  string `json:"algorithm"`
	Strategy   string `json:"strategy"`
	Round      int    `json:"round"`
	LiveNodes  int    `json:"live_nodes"`
	LiveEdges  int    `json:"live_edges"`
	SeedsTried int    `json:"seeds_tried"`
	SeedFound  bool   `json:"seed_found"`
	Selected   int    `json:"selected"`

	SeedBatches []SeedBatchUpdate `json:"seed_batches,omitempty"`

	CostRounds           int `json:"cost_rounds,omitempty"`
	CostSeedBatches      int `json:"cost_seed_batches,omitempty"`
	CostPeakMachineWords int `json:"cost_peak_machine_words,omitempty"`
}

// SeedBatchUpdate is the wire form of repro.SeedBatchStat.
type SeedBatchUpdate struct {
	Batch      int   `json:"batch"`
	Seeds      int   `json:"seeds"`
	SeedsTried int   `json:"seeds_tried"`
	BestValue  int64 `json:"best_value"`
	Found      bool  `json:"found"`
}

func roundUpdate(ev repro.RoundEvent) *RoundUpdate {
	ru := &RoundUpdate{
		Algorithm:            ev.Algorithm,
		Strategy:             ev.Strategy,
		Round:                ev.Round,
		LiveNodes:            ev.LiveNodes,
		LiveEdges:            ev.LiveEdges,
		SeedsTried:           ev.SeedsTried,
		SeedFound:            ev.SeedFound,
		Selected:             ev.Selected,
		CostRounds:           ev.CostRounds,
		CostSeedBatches:      ev.CostSeedBatches,
		CostPeakMachineWords: ev.CostPeakMachineWords,
	}
	for _, b := range ev.Batches {
		ru.SeedBatches = append(ru.SeedBatches, SeedBatchUpdate(b))
	}
	return ru
}

// StreamEvent is one NDJSON line of a streaming solve: zero or more
// {"type":"round"} lines in deterministic round order, then exactly one
// {"type":"result"} or {"type":"error"} line.
type StreamEvent struct {
	Type   string         `json:"type"`
	Round  *RoundUpdate   `json:"round,omitempty"`
	Result *SolveResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	Status int            `json:"status,omitempty"`
}

// observerFunc adapts a closure to repro.Observer.
type observerFunc func(repro.RoundEvent)

func (f observerFunc) OnRound(ev repro.RoundEvent) { f(ev) }

// streamSolve runs a solve with an observer forwarding each round event to
// the client as an NDJSON line. Admission errors (overload, bad request)
// are rejected with their status before any body bytes; once streaming has
// started, a failure arrives as the final {"type":"error"} line. The event
// channel is drained unconditionally until the solve closes it, so a slow
// or disconnected client can stall delivery but never deadlock a worker.
//
// Client disconnects must not burn a worker for the rest of the solve: the
// solve context is a child of r.Context() (which net/http cancels when the
// connection drops), so an abandoned stream cancels its solve at the next
// round or seed-batch boundary — the cancel path discards the partial
// result and re-pools the engine's scratch context Reset, exactly like a
// deadline expiry. cancel is also wired to the disconnect explicitly below
// so the guarantee does not depend on the handler context's parentage, and
// the drain loop stops encoding once the client is gone (the writes could
// only fail).
func (s *Server) streamSolve(w http.ResponseWriter, r *http.Request, req *SolveRequest) {
	pg, opts, err := s.validate(req)
	if err != nil {
		writeError(w, err)
		return
	}
	sctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()

	// Unbuffered on purpose: each observer event hands off directly to the
	// writer goroutine, so round lines reach the client as rounds finish
	// even on a single-core box where a CPU-bound solve would otherwise
	// starve the writer until it blocks. The drain loop below consumes
	// until close, so the worker can never deadlock on a send; the abort
	// path closes the channel without sending.
	events := make(chan repro.RoundEvent)
	var resp *SolveResponse
	var serr error
	j, err := s.enqueue(s.engineIndex(pg.Fingerprint()), func() {
		resp, serr = s.runSolve(sctx, pg, req.Problem, opts, observerFunc(func(ev repro.RoundEvent) {
			events <- ev
		}))
		close(events)
	}, func(e error) {
		serr = e
		close(events)
	})
	if err != nil {
		writeError(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	clientGone := r.Context().Done()
	gone := false
	for ev := range events {
		if !gone {
			select {
			case <-clientGone:
				gone = true // keep draining, stop encoding
			default:
				_ = enc.Encode(StreamEvent{Type: "round", Round: roundUpdate(ev)})
				if fl != nil {
					fl.Flush()
				}
			}
		}
	}
	<-j.done
	s.record(serr)
	if serr != nil {
		_ = enc.Encode(StreamEvent{Type: "error", Error: serr.Error(), Status: HTTPStatus(serr)})
	} else {
		_ = enc.Encode(StreamEvent{Type: "result", Result: resp})
	}
	if fl != nil {
		fl.Flush()
	}
}
