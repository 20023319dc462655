// Package repro is a Go reproduction of "Graph Sparsification for
// Derandomizing Massively Parallel Computation with Low Space" (Czumaj,
// Davies, Parter — SPAA 2020, arXiv:1912.05390): deterministic, fully
// scalable MPC algorithms for Maximal Matching and Maximal Independent Set
// running in O(log Δ + log log n) rounds with O(n^ε) words of space per
// machine, built on the paper's deterministic graph sparsification
// technique, plus the O(log Δ)-round CONGESTED CLIQUE corollaries.
//
// The root package is the public API. Build a graph, then call
// MaximalMatching or MaximalIndependentSet:
//
//	b := repro.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	g := b.Build()
//	res, err := repro.MaximalMatching(g, nil)
//
// Both entry points dispatch per Theorem 1: graphs whose maximum degree is
// small enough that Δ⁴ and the 2ℓ-hop neighbourhoods fit within a machine's
// space budget take the Section 5 stage-compressed path
// (O(log Δ + log log n) rounds); all others take the Section 3/4
// sparsification path (O(log n) rounds). Options selects ε, the
// derandomization thresholds, and whether to track MPC round/space costs;
// results carry the output, iteration counts and an optional CostReport.
//
// # The Engine
//
// The algorithms are iterative — rounds of sparsify → derandomize → peel —
// and the per-round working set shrinks geometrically, so buffers sized on
// the first round serve every later one. Engine exploits that: it owns a
// pool of per-solve scratch contexts (typed arenas for masks and tables,
// plus CSR double-buffers that the shrinking graph ping-pongs between, see
// internal/scratch), so repeated solves on a warm Engine run
// allocation-flat instead of reallocating the working set every round.
//
//	eng := repro.NewEngine(&repro.Options{})
//	for _, g := range graphs {
//		res, err := eng.MaximalIndependentSet(g) // warm after the first call
//		...
//	}
//
// Lifecycle: construct ONE Engine and share it across all traffic — it is
// safe for concurrent use (each in-flight solve checks a private context
// out of the pool and returns it when done, so concurrency costs pool
// depth, not correctness), and heterogeneous request shapes are served
// through per-solve overrides rather than per-configuration engines (see
// "Request-scoped solves" below). Results never alias engine memory. The
// free functions MaximalMatching and MaximalIndependentSet are convenience
// wrappers equivalent to a one-shot engine solve; prefer an Engine whenever
// solves repeat. The determinism contract below is unchanged by reuse:
// outputs are bit-identical cold, warm, or pooled — scratch reuse changes
// memory lifetimes, never values — and CI enforces this by running the
// worker-count-independence tables against warm reused engines under the
// race detector (make race-engine).
//
// The Engine's arithmetic hot path is the seed search. Each round builds one
// plan of its seed-independent state — the hash-key vector (the canonical
// edge keys of a core.EdgeSel, or a core.NodeSel live list restricted to the
// round's candidates) and the plan's table-discipline decisions — and every
// candidate seed then goes through one selection call against that plan
// (core.EdgeGroup.Select, core.NodeGroup.Select: one EvalKeys pass over the
// key vector, then the selection scan). It is the same call that applies the
// chosen seed: scoring runs it at one worker per candidate, the apply step
// at Options.Parallelism. The round loops add only their score, and the
// search around it is core.Params.SeedSearch over condexp.SearchAtLeast,
// which scores each charged batch probe-first: the batch's first candidate
// alone, and the rest, fanned out over the workers, only when it misses,
// while the cost model and every reported seed count still charge the whole
// batch. The sparsify stage searches score a candidate by walking the
// stage's key vector in cache-resident hashfam.BlockKeyGrain blocks, each
// hashed into one stack buffer and absorbed at once into the candidate's
// goodness cursor (branchless scans judged against acceptance intervals
// precomputed once per stage — the deviation bounds depend only on each
// group's fixed size and weight, never on the seed), so no full hash row is
// materialised. The arithmetic is regime-dispatched per field prime
// (internal/intmath.Reducer): a single high-multiply Barrett path for
// m ≤ 2^32 — with a GOARCH-gated AVX2 assembly inner loop on amd64 and a
// pure-Go fallback elsewhere — a branchless Montgomery path for odd
// m < 2^63, and Möller–Granlund wide reduction for the rest. Every regime
// computes exactly the same field values as hashfam.Family.Eval. End to
// end, the golden corpus under testdata/golden pins the derandomized outputs
// and seed-search trajectories, including a workload whose key vectors end
// in ragged blocks. Layer by layer, the fuzzers pin EvalKeys to
// Family.Eval, the blocked multi-seed kernel (which only benchmarks call) to
// per-seed EvalKeys, and the fold selections to the epoch-stamped scans;
// the core selections are pinned to per-seed EvalKeys + selection
// (TestNodeGroupMatchesSel, TestEdgeGroupMatchesSel), the search's miss-path
// fan-out to a serial reference at Parallelism 1, 2 and 8
// (TestSeedSearchMissFanOut), and TestStageFoldMatchesCountGood and
// TestIncidentEdgesMatchesFullScan pin the sparsify stage fold and the
// lowdeg objective to their full-row and full-graph references.
//
// The selection side of that path picks its table discipline per round, for
// edges and nodes alike; the choice lives in core.LocalMinEdgesSel and
// core.LocalMinNodesSelIn, one dense implementation per selection kind.
// Dense rounds — the live set covers at least a
// quarter of the id space and the packed (z, id) keys sit strictly below
// the all-ones sentinel — use flat tables: one word per id, wiped to the
// sentinel (intmath.Fill64) and fed by the fold scatter, so the selection
// scan probes ONE word per neighbour or endpoint instead of a stamp, a
// position and a key reassembly. Node tables (core.NodeFold) are wiped once
// per ROUND, not per seed — within a round every seed's scatter plainly
// overwrites the fixed live set and dead slots keep the sentinel — while
// edge tables (core.EdgeFold, minimum accumulators) rewipe per seed;
// node survivors are compacted branchlessly (unconditional store,
// flag-advanced cursor), and the matched edges are recovered from mutual
// table pointers in canonical order. Sparse rounds instead go
// epoch-stamped: the tables carry a stamp array plus a generation counter,
// a slot being meaningful only when its stamp equals the current
// generation. Each per-seed evaluation advances the generation instead of
// clearing the tables, so its cost is proportional to the touched set —
// the round's edges and candidates — not to the id space.
// Results stay bit-identical across any reuse because a new generation
// makes every old slot unreadable at O(1) cost, and when the uint32 counter
// wraps the stamp array is hard-reset over its full capacity with the
// counter restarting at 1 (zero is never a live generation), so a stale
// stamp can never collide with a recycled one. The epoch state lives in
// Reset-surviving slots of the pooled scratch contexts, which is what keeps
// warm re-solves allocation-flat; internal/core/selection_equiv_test.go and
// the dense/stamped/eager equivalence tables (internal/core/fold_test.go)
// pin the whole invariant against eager-reset references, including across
// a forced wrap and across dirty fold-scratch reuse.
//
// # Request-scoped solves
//
// The Ctx entry points — (*Engine).MaximalMatchingCtx and
// (*Engine).MaximalIndependentSetCtx — scope each solve to a
// context.Context and a set of per-solve SolveOptions layered over the
// engine's base Options:
//
//	eng := repro.NewEngine(nil) // one engine for ALL request shapes
//	ctx, cancel := context.WithTimeout(req.Context(), 200*time.Millisecond)
//	defer cancel()
//	res, err := eng.MaximalMatchingCtx(ctx, g,
//		repro.WithStrategy(repro.StrategySparsify),
//		repro.WithObserver(metrics))
//
// Overrides (WithStrategy, WithParallelism, WithEpsilon, WithSlack,
// WithThresholdFrac, WithCostTracking, WithObserver) are bit-identical to a
// dedicated engine constructed with the overridden Options — enforced per
// (strategy, family) cell by TestSolveOptionOverrideEquivalence — so a
// server shares one warm scratch pool across heterogeneous traffic instead
// of holding one engine per configuration.
//
// Cancellation is checkpoint-based: the round loops poll ctx only at round
// boundaries and between seed batches of the conditional-expectations
// searches, never inside a seed evaluation or selection scan. That placement
// is deliberate — a check anywhere finer would sit on the hash kernel's hot
// path and, worse, could interact with the first-qualifying-seed semantics;
// at boundaries, a solve that completes is bit-identical to an
// uncancellable one (the golden corpus does not change when contexts are
// threaded through), and abandoning a request costs at most one round of
// residual work. A canceled solve returns an error matching ErrCanceled and
// the context's cause (context.Canceled / context.DeadlineExceeded) under
// errors.Is; its partial output is discarded, and its scratch context is
// reset and re-pooled so the engine stays warm and allocation-flat — the
// -race cancellation tables (make race-engine) cancel mid-solve at every
// Parallelism level and demand reference-identical bits from the very next
// solve.
//
// # Error taxonomy
//
// Every error the package returns matches one of a small set of errors.Is
// sentinels, arranged so a server can switch on the coarse class and
// refine when it cares:
//
//   - ErrNilGraph, ErrUnknownStrategy — request construction errors,
//     reported before any solving starts. *UnknownStrategyError carries
//     the offending strategy through errors.As.
//   - ErrCanceled — the solve was abandoned at a round or seed-batch
//     boundary because its context ended. The chain also matches the
//     context's cause (context.Canceled or context.DeadlineExceeded).
//   - ErrDeadlineExceeded — a refinement of ErrCanceled: the context ended
//     specifically because its deadline expired. Every error matching
//     ErrDeadlineExceeded also matches ErrCanceled (and
//     context.DeadlineExceeded), so existing errors.Is(err, ErrCanceled)
//     handling keeps working; handlers that distinguish timeouts from
//     client disconnects test the finer sentinel first.
//   - ErrOverloaded — a disjoint sibling: admission control rejected the
//     request before any engine was involved. The Engine itself never
//     returns it; it exists for serving layers (internal/serve maps it to
//     HTTP 429) so clients can tell "shed load, retry later" from "your
//     solve was cut short".
//   - ErrNotMaximal — the self-check verifier rejected an output;
//     *NotMaximalError carries the reason through errors.As.
//
// The observer (WithObserver) is the telemetry seam: one RoundEvent per
// derandomization round — algorithm, strategy, live nodes/edges at round
// start, seeds evaluated, selection size — delivered synchronously from the
// solve's coordinating goroutine. Each event also carries seed-batch
// granularity (RoundEvent.Batches, one SeedBatchStat per charged batch of
// the round's conditional-expectations search) and the cumulative MPC cost
// counters at emission time (CostRounds, CostSeedBatches,
// CostPeakMachineWords), so a streaming consumer watches the simulated
// cost meter tick without waiting for the final CostReport. The stream is
// deterministic: host parallelism lives inside a round, never across
// rounds, and seed batches are charged in enumeration order regardless of
// worker count, so events arrive in round order with identical contents at
// every Parallelism setting (TestObserverDeterministicAcrossParallelism
// pins the full stream — sub-events included — at 1, 2 and 8 workers).
// Observation never changes results, and unobserved solves pay nothing:
// the per-batch stats and cost snapshots are only materialized when an
// observer is installed, which is what keeps the warm-engine allocation
// budgets flat.
//
// # Prepared graphs
//
// (*Engine).Prepare parses and fingerprints a graph once, returning a
// *PreparedGraph handle that subsequent solves name instead of re-sending
// the graph:
//
//	pg, _ := eng.Prepare(g)            // content-addressed: FNV-1a over the canonical CSR
//	res, _ := pg.MaximalMatchingCtx(ctx, repro.WithStrategy(repro.StrategySparsify))
//
// Preparation is content-addressed dedup, not a different code path: two
// uploads of the same graph — any edge order, duplicates and self-loops
// dropped — fingerprint identically and share one parsed CSR (a
// fingerprint hit is verified structurally before sharing, so a true
// 64-bit collision degrades to a private handle, never a wrong graph), and
// a prepared solve is bit-identical to the engine's Ctx entry points on
// the raw graph (TestPreparedSolveEquivalence pins this per strategy ×
// family). FingerprintOf/ParseFingerprint expose the wire form;
// Prepared/DropPrepared/PreparedCount manage the per-engine cache. The
// cache is bounded (Options.PreparedCacheCap, default
// DefaultPreparedCacheCap): past the cap the least-recently-touched entry
// is evicted on insert, so an upload storm cannot grow engine memory
// without bound. Eviction only forgets the cached parse — outstanding
// handles keep solving, and re-uploading an evicted graph re-prepares it
// bit-identically.
//
// # Serving
//
// internal/serve and cmd/detservd lift the Engine into a long-running
// HTTP/JSON service: a pool of warm engines multiplexing mixed
// matching/MIS traffic. Requests route to an engine by content fingerprint
// for warm-cache affinity, and each engine owns a bounded admission queue;
// a deterministic deficit round-robin scheduler dispatches across the
// queues, granting each non-empty queue a small run of consecutive
// dispatches before moving on, so a backlog of long sparsify-strategy
// solves on one fingerprint delays a cold-fingerprint request by at most
// that grant — never by the whole backlog. Admission is per engine too: a
// request whose home queue is full is rejected immediately with
// ErrOverloaded / HTTP 429 even while other queues have room, and Close
// drains every queue. Per-request deadlines cover queue wait and map onto
// the round/seed-batch cancellation boundaries (expired requests match
// ErrDeadlineExceeded, get HTTP 504, and leave their engine warm), graph
// upload is content-addressed and backed by Engine.Prepare (repeat traffic
// for a graph routes to the same warm engine and shares one CSR), and
// NDJSON streaming forwards the deterministic per-round observer events as
// they happen; a client that disconnects mid-stream cancels its solve at
// the next round boundary, and the abandoned solve's scratch goes back to
// the pool Reset. GET /v1/status reports the aggregate counters plus
// per-engine depth/queued/accepted/rejected/served. The serving layer adds
// no solving code of its own — a served response is byte-identical to a
// direct Engine solve with the same graph and options, which the
// internal/serve tests enforce under concurrent mixed load, including one
// engine's queue saturated while another serves cold traffic. cmd/loadgen
// drives a running server at varying concurrency with a deterministic
// mixed plan (-mix matching/MIS split, -sparsify strategy fraction,
// -stream NDJSON fraction) and archives p50/p99 latency quantiles — plus
// time-to-first-round quantiles for the streamed cells — in the
// cmd/benchjson schema (make serve-smoke, diffed by make serve-compare).
//
// Everything the algorithms rely on is implemented in this module under
// internal/: the MPC cluster simulator with Lemma 4's constant-round
// sorting and prefix sums (internal/mpc), the round/space cost model
// (internal/simcost), k-wise independent hash families (internal/hashfam),
// the method of conditional expectations (internal/condexp), the
// deterministic edge/node sparsification (internal/sparsify), Linial
// colouring of G² (internal/coloring), the CONGESTED CLIQUE layer
// (internal/cclique), randomized baselines (internal/luby), the shared
// host-parallel execution pool (internal/parallel) and the experiment suite
// reproducing every claim (internal/experiments, whose package documentation
// indexes the T1–T9, F1–F2 and A1–A5 experiments).
//
// # Substitutions
//
// Where the paper's construction does not run as written on one host, the
// code substitutes as follows; comments cite these entries by number.
//
//  1. Seed search. The paper fixes an O(log n)-bit seed in Θ(log S)-bit
//     chunks by conditional expectations, O(1) rounds per chunk, since
//     local computation is free in MPC. The host instead scans the family
//     in a fixed enumeration order, S candidates per charged O(1)-round
//     batch, and takes the first seed whose objective reaches a
//     ThresholdFrac fraction of the proven expectation bound
//     (condexp.SearchAtLeast), scoring each batch's first candidate alone
//     and the rest only on a miss. The exact chunk-by-chunk method is
//     condexp.SearchConditional; experiment A5 compares the two.
//  2. Low-degree seed sequences. Section 5 enumerates all |H*|^ℓ seed
//     sequences of a stage locally and keeps the best. That is infeasible
//     on a host, so internal/lowdeg picks each phase's seed greedily by the
//     same seed search, which achieves at least the per-phase expected
//     progress and hence the O(log n) total phase bound.
//  3. Low-degree round accountings. lowdeg reports the paper's accounting
//     (colouring + ball collection + O(1) rounds per stage) and the
//     accounting of the greedy selection it executes (three rounds per
//     phase) side by side; experiment T5 shows both.
//  4. Slack. The concentration deviation terms of the goodness predicates
//     and invariant checks are multiplied by Options.Slack (default 4): the
//     paper's constants bind only asymptotically. Experiment A4 sweeps it.
//  5. Congested-clique baseline. The prior state of the art
//     (Censor-Hillel et al. [15], O(log Δ·log n) rounds) is modelled by its
//     round accounting, Θ(log n) seed-voting rounds per phase charged
//     against the same executed phase counts (internal/cclique.CH15Rounds),
//     not reimplemented. Experiment T6 compares against it.
//  6. Id tie-break. The paper's hash range n³ makes z-value collisions
//     rare; here the field is the least prime at least
//     max(64·n², 1024) (core.EdgeField), and every selection rule orders
//     candidates by (z, id) (core.ZKey), so the remaining ties break by id.
//
// # Parallel execution
//
// The hot paths — candidate-seed batches in the conditional-expectations
// searches, per-vertex objective and goodness scans, CSR graph rebuilds, and
// the simulator's machine-step fan-out — all execute on a shared bounded
// worker pool (internal/parallel) sized by Options.Parallelism: 0 (default)
// means one worker per logical CPU, 1 forces serial execution, larger values
// pin an explicit count.
//
// The determinism contract: every result is bit-identical at every
// Parallelism setting. The pool guarantees it structurally — work is split
// into contiguous shards whose boundaries depend only on the problem size,
// shard bodies write disjoint state, and reductions fold per-shard partials
// in shard order — so parallelism trades wall-clock time only, never output.
// CI enforces the contract by running worker-count-independence tests
// (outputs compared across Parallelism 1, 2 and 8 on several graph
// families) under the race detector; see parallel_determinism_test.go and
// .github/workflows/ci.yml.
//
// # Static enforcement
//
// The determinism and allocation contracts above are not just prose: an
// in-tree analyzer suite (internal/lint, driven by cmd/detlint, run as
// `make lint` and as the CI lint step) mechanically rejects the
// constructs that break them, at compile-review time rather than when a
// golden test flakes. Five analyzers:
//
//   - nogoroutine — no raw `go` statements outside internal/parallel
//     (the deterministic worker pool is the only sanctioned concurrency
//     primitive on solver paths; internal/serve, cmd/ and examples/ are
//     exempt because concurrency is their product).
//   - nomaprange — no `range` over a map in the solver packages
//     (internal/lint.SolverPackages), whose iteration order the runtime
//     deliberately randomizes. A loop whose body provably aggregates
//     order-insensitively (integer counters, commutative integer op=,
//     delete from the ranged map) passes; anything richer must sort the
//     keys first (slices.Sorted(maps.Keys(m))) or carry an annotation.
//   - nondetsource — in solver packages, no math/rand (internal/detrand
//     is the sanctioned seeded source), no wall clock (time.Now,
//     time.Since), no environment reads (os.Getenv); repo-wide, no
//     unstable sort.Slice/SliceStable/SliceIsSorted — use the slices
//     package, which is both stable-by-construction for full orders and
//     allocation-free.
//   - floatfold — no floating-point accumulation into variables captured
//     by a closure passed to an internal/parallel entry point: float
//     folds in goroutine completion order drift with the worker count
//     even though each shard is exact (the sparsify carry bug class).
//     Per-shard partials written to disjoint indexed state and reduced
//     in shard order afterwards are the sanctioned pattern and are not
//     flagged.
//   - hotalloc — inside functions annotated //det:hotpath (the *Into/*In
//     round loops, the EvalSeeds* kernels, the fold scatter/select
//     primitives), every allocating construct is flagged: append, make,
//     new, map/slice composite literals, and capturing closures. This is
//     the static half of the warm-engine discipline whose aggregate the
//     TestEngineWarmReuseAllocs* budgets meter.
//
// Deliberate exemptions are inline and greppable:
//
//	//det:allow <analyzer> <reason>
//
// suppresses one analyzer on one line (trailing form covers its own
// line; a directive on a line of its own covers the next line), and the
// reason is mandatory. Malformed directives, directives naming an
// unknown analyzer, and directives that suppress nothing are themselves
// diagnostics, so a typo'd exemption can never silently excuse a real
// violation. `detlint -list` prints the suite; internal/lint documents
// the scope table.
package repro
