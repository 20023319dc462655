package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/lowdeg"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// Graph is an immutable undirected graph in CSR form (node ids dense in
// [0, N)). Construct with NewBuilder or FromEdges.
type Graph = graph.Graph

// Edge is an undirected edge; the canonical form has U < V.
type Edge = graph.Edge

// NodeID identifies a node.
type NodeID = graph.NodeID

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n nodes from an edge list (duplicates and
// self loops are dropped).
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Generate builds a named synthetic workload ("gnm", "gnp", "powerlaw",
// "regular", "grid", "complete", "star", "path", "cycle", "tree",
// "caterpillar", "bipartite") with roughly n nodes and the given average
// degree, deterministically from seed.
func Generate(family string, n, avgDeg int, seed uint64) (*Graph, error) {
	return gen.ByName(family, n, avgDeg, seed)
}

// Strategy selects which of the paper's algorithms to run.
type Strategy string

const (
	// StrategyAuto dispatches per Theorem 1: the Section 5 low-degree path
	// when Δ⁴ fits the machine budget, otherwise the sparsification path.
	StrategyAuto Strategy = "auto"
	// StrategySparsify forces the Section 3/4 O(log n) algorithms.
	StrategySparsify Strategy = "sparsify"
	// StrategyLowDegree forces the Section 5 O(log Δ + log log n)
	// algorithm (correct for any input; space violations are recorded when
	// Δ is too large for the regime).
	StrategyLowDegree Strategy = "lowdeg"
)

// Options configure the algorithms. The zero value (and nil) mean: ε = 0.5,
// the paper's δ = ε/8 coupling, slack 4, half-expectation thresholds and
// automatic strategy. Every solve is costed: its result carries the
// CostReport of the MPC cost model its seed searches batch by.
type Options struct {
	// Epsilon is the per-machine space exponent (S = Θ(n^ε)), in (0, 1].
	Epsilon float64
	// Slack relaxes the asymptotic concentration constants (substitution 4
	// of the package documentation). Must be positive.
	Slack float64
	// ThresholdFrac is the fraction of each proven expectation bound the
	// deterministic seed search must reach, in (0, 1].
	ThresholdFrac float64
	// Strategy picks the algorithm; default StrategyAuto.
	Strategy Strategy
	// Parallelism is the host-side worker count for the shared execution
	// pool (internal/parallel): hashing the selected seed's keys,
	// per-vertex scans, and graph rebuilds all shard across it; seed
	// searches score their candidates serially. 0 (the default) means one
	// worker per logical CPU (GOMAXPROCS); 1 forces serial execution;
	// larger values pin an explicit worker count. At any setting, a call
	// whose work is below the pool's serial cutoff (parallel.SerialWork,
	// about 2^17 CSR word reads: every call of the sparsify path at
	// n = 4096 avg degree 16) runs on the calling goroutine, so the setting
	// matters only for larger calls. Results are bit-identical
	// at every setting — the determinism contract, enforced by the
	// worker-count-independence tests run under -race in CI — so this knob
	// trades only wall-clock time, never output.
	Parallelism int
	// PreparedCacheCap bounds the Engine's prepared-graph cache
	// (Engine.Prepare): when an insert would exceed the cap, the
	// least-recently-used entry (by Prepare/Prepared touch order) is
	// evicted first. 0 means DefaultPreparedCacheCap; negative means
	// unbounded. Eviction only forgets the shared handle — outstanding
	// handles stay valid, and re-preparing the same content yields a
	// bit-identical cache entry. DropPrepared remains the manual path.
	PreparedCacheCap int
}

// DefaultPreparedCacheCap is the prepared-graph cache bound used when
// Options.PreparedCacheCap is 0. Large enough that steady serving traffic
// over a working set of graphs never evicts, small enough that an unbounded
// upload storm cannot grow the engine without limit.
const DefaultPreparedCacheCap = 256

// validate is the one option check: every solve runs it, and
// ValidateOptions exports it. The numeric options go to core through
// params(), where an out-of-range value is a programmer-error panic: each
// set field must lie in its range, and ε must keep the paper's
// 1/δ = ⌈8/ε⌉ (the coupling core.Params.WithEpsilon applies) below
// core.SlotMax. Zero fields mean "default" and always pass. Strategy must
// name a defined strategy (empty means StrategyAuto): solveMatching and
// solveMIS dispatch on it with no default case.
func (o *Options) validate() error {
	if eps := o.Epsilon; eps != 0 && !(eps > 0 && eps <= 1 && math.Ceil(8/eps) < core.SlotMax) {
		return fmt.Errorf("%w: epsilon %v, want 0 < ε <= 1 with ⌈8/ε⌉ < %d", ErrInvalidOption, eps, core.SlotMax)
	}
	if s := o.Slack; s != 0 && !(s > 0) {
		return fmt.Errorf("%w: slack %v, want > 0", ErrInvalidOption, s)
	}
	if f := o.ThresholdFrac; f != 0 && !(f > 0 && f <= 1) {
		return fmt.Errorf("%w: threshold fraction %v, want in (0, 1]", ErrInvalidOption, f)
	}
	switch o.strategy() {
	case StrategyAuto, StrategySparsify, StrategyLowDegree:
	default:
		return &UnknownStrategyError{Strategy: o.Strategy}
	}
	return nil
}

func (o *Options) params() core.Params {
	p := core.DefaultParams()
	if o == nil {
		return p
	}
	if o.Epsilon != 0 {
		p = p.WithEpsilon(o.Epsilon)
	}
	if o.Slack != 0 {
		p.Slack = o.Slack
	}
	if o.ThresholdFrac != 0 {
		p.ThresholdFrac = o.ThresholdFrac
	}
	p.Parallelism = o.Parallelism
	return p
}

func (o *Options) strategy() Strategy {
	if o == nil || o.Strategy == "" {
		return StrategyAuto
	}
	return o.Strategy
}

// CostReport summarises the MPC execution costs of a run under the paper's
// accounting (see internal/simcost and the Substitutions section of the
// package documentation). Every result carries one.
type CostReport struct {
	Rounds           int
	Machines         int
	SpacePerMachine  int
	PeakMachineWords int
	SeedBatches      int
	Violations       []string
}

func report(m *simcost.Model) *CostReport {
	st := m.Stats()
	return &CostReport{
		Rounds:           st.Rounds,
		Machines:         st.Machines,
		SpacePerMachine:  st.S,
		PeakMachineWords: st.PeakMachineWords,
		SeedBatches:      st.SeedBatches,
		Violations:       st.Violations,
	}
}

// MatchingResult is the output of MaximalMatching.
type MatchingResult struct {
	Edges      []Edge
	Iterations int
	Strategy   Strategy
	Costs      *CostReport
}

// MISResult is the output of MaximalIndependentSet.
type MISResult struct {
	Nodes      []NodeID
	Iterations int
	Strategy   Strategy
	Costs      *CostReport
}

// Sentinel errors. Every error returned by the solve API matches exactly one
// of these under errors.Is; the structured types below carry the detail and
// are reachable through errors.As.
var (
	// ErrNilGraph is returned when the input graph is nil.
	ErrNilGraph = errors.New("repro: nil graph")
	// ErrCanceled marks a solve abandoned through its context. The returned
	// error also wraps the context's cause, so errors.Is(err,
	// context.Canceled) (or context.DeadlineExceeded) reports why.
	ErrCanceled = errors.New("repro: solve canceled")
	// ErrDeadlineExceeded marks a solve abandoned because its deadline
	// expired. It is a refinement of ErrCanceled, never a sibling: every
	// error matching ErrDeadlineExceeded also matches ErrCanceled and
	// context.DeadlineExceeded under errors.Is, so existing ErrCanceled
	// handling keeps working and servers can still map timeouts separately
	// (504 vs 499 in internal/serve).
	ErrDeadlineExceeded = errors.New("repro: solve deadline exceeded")
	// ErrOverloaded marks a request rejected by admission control before any
	// solve work started: the serving layer's bounded queue was full. It is
	// disjoint from ErrCanceled — an overloaded request never touched an
	// Engine — and maps to HTTP 429 in internal/serve.
	ErrOverloaded = errors.New("repro: server overloaded")
	// ErrUnknownStrategy marks an Options.Strategy (or WithStrategy value)
	// that names none of the defined strategies; errors.As with
	// *UnknownStrategyError recovers the offending value. Like
	// ErrInvalidOption it is returned before any solve work starts, and
	// ValidateOptions reports it without solving.
	ErrUnknownStrategy = errors.New("repro: unknown strategy")
	// ErrInvalidOption marks an Epsilon, Slack or ThresholdFrac outside its
	// range, in the engine's base Options or a per-solve override. It is
	// returned before any solve work starts; ValidateOptions reports it
	// without solving.
	ErrInvalidOption = errors.New("repro: invalid option")
	// ErrNotMaximal marks an internal failure: the solver produced output
	// that did not verify maximal. It should never be observed; errors.As
	// with *NotMaximalError recovers the verifier's reason.
	ErrNotMaximal = errors.New("repro: output not maximal")
)

// UnknownStrategyError reports a strategy value that names none of the
// defined strategies. It matches ErrUnknownStrategy under errors.Is.
type UnknownStrategyError struct {
	Strategy Strategy
}

func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("repro: unknown strategy %q", e.Strategy)
}

// Is makes errors.Is(err, ErrUnknownStrategy) hold for this type.
func (e *UnknownStrategyError) Is(target error) bool { return target == ErrUnknownStrategy }

// NotMaximalError reports which algorithm failed post-solve verification and
// the verifier's reason. It matches ErrNotMaximal under errors.Is.
type NotMaximalError struct {
	Algorithm string // "matching" or "mis"
	Reason    string // the check package's counterexample description
}

func (e *NotMaximalError) Error() string {
	return fmt.Sprintf("repro: internal error, %s output not maximal: %s", e.Algorithm, e.Reason)
}

// Is makes errors.Is(err, ErrNotMaximal) hold for this type.
func (e *NotMaximalError) Is(target error) bool { return target == ErrNotMaximal }

// canceledError wraps both ErrCanceled and the context's cause, so callers
// can branch on errors.Is(err, ErrCanceled) as well as on the underlying
// context.Canceled / context.DeadlineExceeded. Deadline-driven
// cancellations additionally wrap ErrDeadlineExceeded, keeping the taxonomy
// a refinement chain: ErrDeadlineExceeded ⊂ ErrCanceled.
func canceledError(ctx context.Context) error {
	cause := context.Cause(ctx)
	if cause == nil {
		// The solve observed cancellation through Params.Done but the
		// context has not recorded a cause yet (possible only with racy
		// custom contexts); fall back to the generic cause.
		cause = context.Canceled
	}
	if errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w: %w", ErrCanceled, ErrDeadlineExceeded, cause)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// RoundEvent is the per-round telemetry record delivered to an Observer; see
// core.RoundEvent for the field semantics. Observed solves additionally
// carry the round's seed-batch sub-events (RoundEvent.Batches) and the
// incremental simcost counters (CostRounds, CostSeedBatches,
// CostPeakMachineWords); unobserved solves never compute either.
type RoundEvent = core.RoundEvent

// SeedBatchStat is one charged seed batch of a round's conditional-
// expectations search, carried by RoundEvent.Batches in evaluation order;
// see condexp.BatchStat for the field semantics.
type SeedBatchStat = core.SeedBatchStat

// Observer receives one OnRound call per completed round of a solve it is
// attached to (WithObserver). Delivery is synchronous from the solve's
// coordinating goroutine, strictly in round order, and the event stream is
// deterministic: the same graph, options and build produce the same events
// in the same order at every Parallelism setting — host parallelism lives
// inside a round, never across rounds. An observer therefore needs no
// locking of its own unless it is shared across concurrent solves, and a
// slow OnRound stalls only its own solve.
type Observer interface {
	OnRound(RoundEvent)
}

// solveConfig is the fully resolved per-request configuration: the engine's
// base Options after value-copy, plus the request-scoped extras that are not
// Options fields.
type solveConfig struct {
	Options
	observer Observer
}

// SolveOption overrides one knob of a single solve, layered over the
// engine's base Options: Engine.MaximalMatchingCtx(ctx, g, WithStrategy(s))
// behaves bit-identically to the same call on a dedicated engine constructed
// with that strategy. Options are applied in order; later options win.
type SolveOption func(*solveConfig)

// WithStrategy forces the algorithm for this solve (see Strategy).
func WithStrategy(s Strategy) SolveOption {
	return func(c *solveConfig) { c.Strategy = s }
}

// WithParallelism pins the host worker count for this solve (0 = one per
// logical CPU, 1 = serial).
func WithParallelism(workers int) SolveOption {
	return func(c *solveConfig) { c.Parallelism = workers }
}

// WithEpsilon sets the space exponent ε for this solve.
func WithEpsilon(eps float64) SolveOption {
	return func(c *solveConfig) { c.Epsilon = eps }
}

// WithSlack sets the concentration slack for this solve.
func WithSlack(slack float64) SolveOption {
	return func(c *solveConfig) { c.Slack = slack }
}

// WithThresholdFrac sets the seed-search threshold fraction for this solve.
func WithThresholdFrac(frac float64) SolveOption {
	return func(c *solveConfig) { c.ThresholdFrac = frac }
}

// WithObserver attaches a per-round observer to this solve. Observation
// never changes results: events are emitted at round boundaries from state
// the solve computes anyway (plus a live-node count), and the golden corpus
// is byte-identical with or without an observer attached.
func WithObserver(o Observer) SolveOption {
	return func(c *solveConfig) { c.observer = o }
}

// Engine is a reusable solver for the deterministic algorithms. It owns a
// pool of per-solve scratch contexts (arena-backed masks and tables and
// reusable CSR buffers, see internal/scratch), so repeated solves on a warm
// Engine reuse the buffers of earlier ones instead of reallocating the
// working set every round — the first solve pays the full allocation bill,
// later solves of similar or smaller size run allocation-flat.
//
// An Engine is safe for concurrent use: each in-flight solve checks a
// private context out of the pool, so a server can share one Engine across
// request goroutines — that is the intended lifecycle: construct once,
// reuse for ALL traffic. Heterogeneous requests do not need one engine per
// configuration: the Ctx entry points take per-solve SolveOption overrides
// (strategy, parallelism, thresholds, observer) layered over the base
// Options, with results bit-identical to a dedicated engine built with the
// overridden Options. The determinism contract is unchanged:
// results are bit-identical to the free functions at every Parallelism
// setting, whether the engine is cold, warm, or shared.
//
// The zero value is an Engine with default Options.
type Engine struct {
	opts Options
	pool sync.Pool

	// Prepared-graph cache (Engine.Prepare): content fingerprint → shared
	// handle. Lazily built under mu so the zero-value Engine stays valid.
	// preparedAge holds each entry's last-touch tick (monotonic under mu);
	// when an insert pushes the cache past Options.PreparedCacheCap, the
	// entry with the smallest tick — least recently prepared or looked up —
	// is evicted first.
	mu           sync.Mutex
	prepared     map[Fingerprint]*PreparedGraph
	preparedAge  map[Fingerprint]uint64
	preparedTick uint64
}

// NewEngine returns an Engine solving with the given options (nil means
// defaults). The options are captured by value at construction.
func NewEngine(opts *Options) *Engine {
	e := &Engine{}
	if opts != nil {
		e.opts = *opts
	}
	return e
}

// ctx checks a scratch context out of the pool.
func (e *Engine) ctx() *scratch.Context {
	if c, ok := e.pool.Get().(*scratch.Context); ok {
		return c
	}
	return scratch.New()
}

// config layers per-solve options over the engine's base Options. The base
// is copied by value, so a SolveOption can never mutate the engine.
func (e *Engine) config(opts []SolveOption) *solveConfig {
	return layer(e.opts, opts)
}

// layer applies opts in order over a copy of base.
func layer(base Options, opts []SolveOption) *solveConfig {
	cfg := &solveConfig{Options: base}
	for _, o := range opts {
		if o != nil {
			o(cfg)
		}
	}
	return cfg
}

// ValidateOptions reports whether opts, layered over the default Options,
// hold every value a solve accepts: nil, an error matching
// ErrInvalidOption that names the numeric field and its range, or an
// *UnknownStrategyError (matching ErrUnknownStrategy) that carries an
// undefined strategy. A solve runs the same check, so a server that must
// answer before its solve starts (a streamed response commits its status
// first) can reject at admission, and a process can check the base
// Options it is configured with before it serves anything.
func ValidateOptions(opts ...SolveOption) error {
	return layer(Options{}, opts).validate()
}

// MaximalMatchingCtx computes a maximal matching of g deterministically
// (Theorem 1), scoped to ctx and with any per-solve option overrides layered
// over the engine's base Options. The result is verified maximal before
// returning and never aliases engine memory.
//
// Cancellation: the solve polls ctx only at round boundaries, between seed
// batches of the conditional-expectations searches and, on the Section 5
// path, between the rounds of the preprocessing and between its nodes once
// per fixed budget of work — never inside a seed evaluation or a selection
// scan — so a solve that completes is bit-identical to an uncancellable
// one, and abandoning a request costs at most one round, or one budget of
// preprocessing work plus one node's, of residual work. A canceled
// solve returns an error matching both
// ErrCanceled and the context's cause (context.Canceled or
// context.DeadlineExceeded) under errors.Is; its scratch context is still
// reset and re-pooled, so the engine stays warm and allocation-flat for
// subsequent solves.
func (e *Engine) MaximalMatchingCtx(ctx context.Context, g *Graph, opts ...SolveOption) (*MatchingResult, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if ctx.Err() != nil {
		return nil, canceledError(ctx)
	}
	sc := e.ctx()
	out, err := solveMatching(ctx, sc, g, e.config(opts))
	// On panic the context is abandoned rather than re-pooled; on
	// cancellation the solver left it Reset, so re-pooling is safe.
	e.pool.Put(sc)
	return out, err
}

// MaximalIndependentSetCtx computes an MIS of g deterministically
// (Theorem 1), scoped to ctx and with per-solve option overrides. The
// cancellation and override semantics are those of MaximalMatchingCtx.
func (e *Engine) MaximalIndependentSetCtx(ctx context.Context, g *Graph, opts ...SolveOption) (*MISResult, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if ctx.Err() != nil {
		return nil, canceledError(ctx)
	}
	sc := e.ctx()
	out, err := solveMIS(ctx, sc, g, e.config(opts))
	e.pool.Put(sc)
	return out, err
}

// MaximalMatching computes a maximal matching of g deterministically
// (Theorem 1), reusing the engine's pooled solve state. It is
// MaximalMatchingCtx with context.Background() and no overrides.
func (e *Engine) MaximalMatching(g *Graph) (*MatchingResult, error) {
	return e.MaximalMatchingCtx(context.Background(), g)
}

// MaximalIndependentSet computes an MIS of g deterministically (Theorem 1),
// reusing the engine's pooled solve state. It is MaximalIndependentSetCtx
// with context.Background() and no overrides.
func (e *Engine) MaximalIndependentSet(g *Graph) (*MISResult, error) {
	return e.MaximalIndependentSetCtx(context.Background(), g)
}

// MaximalMatching computes a maximal matching of g deterministically
// (Theorem 1). opts may be nil for defaults. The result is verified
// maximal before returning.
//
// It is a convenience wrapper equivalent to a one-shot Engine solve;
// callers issuing repeated solves should hold an Engine to reuse its
// pooled state (and its Ctx variants for request scoping).
func MaximalMatching(g *Graph, opts *Options) (*MatchingResult, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	return solveMatching(context.Background(), scratch.New(), g, oneShotConfig(opts))
}

// MaximalIndependentSet computes an MIS of g deterministically (Theorem 1).
// opts may be nil for defaults. The result is verified maximal before
// returning.
//
// It is a convenience wrapper equivalent to a one-shot Engine solve;
// callers issuing repeated solves should hold an Engine to reuse its
// pooled state (and its Ctx variants for request scoping).
func MaximalIndependentSet(g *Graph, opts *Options) (*MISResult, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	return solveMIS(context.Background(), scratch.New(), g, oneShotConfig(opts))
}

// oneShotConfig adapts the free functions' *Options to the request-scoped
// configuration (nil means defaults, exactly as before).
func oneShotConfig(opts *Options) *solveConfig {
	cfg := &solveConfig{}
	if opts != nil {
		cfg.Options = *opts
	}
	return cfg
}

// resolve computes the per-solve parameterisation: core params (including
// the request's cancellation hook and observer), the cost model of g and
// the concrete strategy for g.
func resolve(ctx context.Context, g *Graph, cfg *solveConfig) (core.Params, *simcost.Model, Strategy, error) {
	opts := &cfg.Options
	if err := opts.validate(); err != nil {
		return core.Params{}, nil, "", err
	}
	p := opts.params()
	if done := ctx.Done(); done != nil {
		p.Done = func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
	}
	if cfg.observer != nil {
		p.Observe = cfg.observer.OnRound
	}
	model := simcost.New(g.N(), g.M(), p.Epsilon)
	strat := opts.strategy()
	if strat == StrategyAuto {
		if lowdeg.Suitable(g, p) {
			strat = StrategyLowDegree
		} else {
			strat = StrategySparsify
		}
	}
	return p, model, strat, nil
}

func solveMatching(ctx context.Context, sc *scratch.Context, g *Graph, cfg *solveConfig) (*MatchingResult, error) {
	p, model, strat, err := resolve(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	var out *MatchingResult
	canceled := false
	switch strat {
	case StrategyLowDegree:
		res := lowdeg.MaximalMatchingIn(sc, g, p, model)
		canceled = res.MIS.Canceled
		out = &MatchingResult{Edges: res.Matching, Iterations: len(res.MIS.Rounds), Strategy: strat}
	case StrategySparsify:
		res := matching.DeterministicIn(sc, g, p, model)
		canceled = res.Canceled
		out = &MatchingResult{Edges: res.Matching, Iterations: len(res.Rounds), Strategy: strat}
	}
	if canceled {
		// The partial matching is discarded: a canceled solve has no result.
		return nil, canceledError(ctx)
	}
	if ok, reason := check.IsMaximalMatching(g, out.Edges); !ok {
		return nil, &NotMaximalError{Algorithm: "matching", Reason: reason}
	}
	out.Costs = report(model)
	return out, nil
}

func solveMIS(ctx context.Context, sc *scratch.Context, g *Graph, cfg *solveConfig) (*MISResult, error) {
	p, model, strat, err := resolve(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	var out *MISResult
	canceled := false
	switch strat {
	case StrategyLowDegree:
		res := lowdeg.MISIn(sc, g, p, model)
		canceled = res.Canceled
		out = &MISResult{Nodes: res.IndependentSet, Iterations: len(res.Rounds), Strategy: strat}
	case StrategySparsify:
		res := mis.DeterministicIn(sc, g, p, model)
		canceled = res.Canceled
		out = &MISResult{Nodes: res.IndependentSet, Iterations: len(res.Rounds), Strategy: strat}
	}
	if canceled {
		return nil, canceledError(ctx)
	}
	if ok, reason := check.IsMaximalIS(g, out.Nodes); !ok {
		return nil, &NotMaximalError{Algorithm: "mis", Reason: reason}
	}
	out.Costs = report(model)
	return out, nil
}
