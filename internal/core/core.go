// Package core holds the shared vocabulary of the paper's algorithms: the
// parameter set (ε, δ = ε/8, concentration slack, search thresholds), the
// degree-class partition C_1, …, C_{1/δ} of Section 3, the good-node set X
// of Luby's matching analysis, the deterministic local-minimum selection
// rules shared by the matching and MIS steps, and the round driver (Loop)
// and MIS node state (MISNodes) their loops share.
package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/condexp"
	"repro/internal/graph"
	"repro/internal/hashfam"
	"repro/internal/intmath"
	"repro/internal/parallel"
)

// Params are the knobs of the deterministic algorithms. The zero value is
// not meaningful; start from DefaultParams.
type Params struct {
	// Epsilon is the space exponent: S = Θ(n^ε) words per machine.
	Epsilon float64
	// InvDelta is 1/δ (the paper requires 1/δ ∈ N). DefaultParams sets
	// ceil(8/ε) so that δ <= ε/8, the setting that makes the 2-hop
	// neighbourhoods of the sparsified graph fit one machine.
	InvDelta int
	// KWise is the independence c of the hash family used by the stage
	// subsampling (Lemma 9 requires an even constant >= 4).
	KWise int
	// Slack multiplies the concentration deviation terms in the machine
	// goodness predicates and invariant checks. The paper's constants only
	// bind asymptotically; Slack = 4 keeps the predicates meaningful at
	// laptop scale (substitution 4 of the repro package documentation).
	Slack float64
	// ThresholdFrac is the fraction of the proven expectation bound used as
	// the seed-search threshold. 1.0 demands the full probabilistic-method
	// bound; 0.5 (default) makes qualifying seeds plentiful while keeping
	// per-iteration progress within a factor 2 of the theorem's.
	ThresholdFrac float64
	// MaxSeedsPerSearch caps each derandomization scan; on exhaustion the
	// best seed seen is used (progress is then whatever that seed achieves,
	// so the algorithms remain unconditionally correct).
	MaxSeedsPerSearch int
	// Parallelism is the host-side worker count used by the shared
	// internal/parallel pool for hashing the selected seed's keys,
	// per-vertex scans, and graph rebuilds (seed searches score their
	// candidates serially): 0 (default) means GOMAXPROCS, 1 means serial,
	// larger values pin an explicit worker count. At any setting, a call
	// below the pool's serial cutoff (parallel.SerialWork) runs on the
	// calling goroutine. Results are bit-identical at any setting (the
	// determinism contract; see internal/parallel).
	Parallelism int
	// Done, when non-nil, reports whether the enclosing request has been
	// abandoned (context canceled, deadline exceeded). The round loops poll
	// it ONLY at round boundaries (Loop.Stop), between condexp seed
	// batches and, in the Section 5 preprocessing, between Linial rounds
	// and between nodes once per coloring.PollBudget of a shard's work —
	// never inside a seed evaluation or a selection scan — so a solve that
	// runs to completion is bit-identical to one with Done == nil, and
	// cancellation latency is bounded by one round's work or one budget's
	// plus one node's. Once Done returns true it must keep returning true
	// (context semantics), so Loop.Stop sees any poll that stopped work.
	Done func() bool
	// Observe, when non-nil, receives one RoundEvent per completed round of
	// the outer derandomization loops (Loop.End), from the solve's
	// coordinating goroutine, strictly in round order, after the round's
	// seed search and apply have finished — host parallelism lives inside a
	// round, never across rounds, so the event stream is identical at every
	// Parallelism setting. Observation never changes outputs: an observer
	// costs only the matching path's live-node count and a model snapshot.
	Observe func(RoundEvent)
}

// RoundEvent is one completed round of a derandomized solve, as delivered to
// Params.Observe: which algorithm and strategy ran it, how much of the graph
// was still live when the round started, and what the seed search did. The
// stream is deterministic — same input, options and code produce the same
// events in the same order at any Parallelism.
type RoundEvent struct {
	// Algorithm is "matching" or "mis". The Section 5 matching runs MIS on
	// the line graph; its events carry Algorithm "matching" with the live
	// counts of the line graph it actually iterates on.
	Algorithm string
	// Strategy is "sparsify" (Sections 3/4) or "lowdeg" (Section 5).
	Strategy string
	// Round is the 1-based emission index within the solve.
	Round int
	// LiveNodes / LiveEdges measure the shrinking graph at round start:
	// non-isolated nodes for the matching path, surviving (alive) nodes for
	// the MIS paths, and the current edge count.
	LiveNodes int
	LiveEdges int
	// SeedsTried / SeedFound report the round's conditional-expectations
	// search; Selected is the number of edges (matching) or nodes (MIS) the
	// selected seed committed this round. SeedsTried counts the model's
	// charged candidates — S machines and one AllReduce per batch — not
	// how many the host scored (see condexp.SearchAtLeast).
	SeedsTried int
	SeedFound  bool
	Selected   int
	// Batches, only on observed solves, breaks the round's selection search
	// down into its charged seed batches, in evaluation (enumeration)
	// order: the seed-batch-granular sub-events of the observer seam. It is
	// nil when no observer is attached — unobserved solves never build it —
	// and empty when the round ran no search batch. The stage searches
	// inside the sparsification chain are not included; the batches sum to
	// SeedsTried above. Each event owns its slice (never reused across
	// rounds), so observers may retain it.
	Batches []SeedBatchStat
	// CostRounds, CostSeedBatches and CostPeakMachineWords export the
	// solve's simcost accounting incrementally: the cumulative charged MPC
	// rounds, charged seed batches and peak per-machine words at the moment
	// this event was emitted. Every solve is costed, so every event carries
	// them, and — like every other field — they are deterministic at any
	// Parallelism: the model's charges depend only on problem sizes and
	// batch shapes, never on host scheduling.
	CostRounds           int
	CostSeedBatches      int
	CostPeakMachineWords int
}

// SeedBatchStat is one charged seed batch of a round's conditional-
// expectations search, carried by RoundEvent.Batches (see Params.SeedSearch).
type SeedBatchStat = condexp.BatchStat

// Canceled reports whether the solve's request has been abandoned. It is the
// single polling point of the cancellation checks (nil Done means "never").
func (p Params) Canceled() bool { return p.Done != nil && p.Done() }

// Workers resolves Parallelism to a concrete worker count.
func (p Params) Workers() int { return parallel.Workers(p.Parallelism) }

// DefaultParams returns the parameterisation used throughout the experiment
// suite: ε = 0.5 (S = √n), δ = 1/16, 4-wise independence, slack 4,
// half-expectation thresholds.
func DefaultParams() Params {
	return Params{
		Epsilon:           0.5,
		InvDelta:          16,
		KWise:             4,
		Slack:             4.0,
		ThresholdFrac:     0.5,
		MaxSeedsPerSearch: 1 << 14,
		Parallelism:       0, // auto: GOMAXPROCS workers
	}
}

// WithEpsilon returns params with Epsilon = eps and InvDelta = ceil(8/eps),
// the paper's δ = ε/8 coupling.
func (p Params) WithEpsilon(eps float64) Params {
	if eps <= 0 || eps > 1 {
		panic("core: epsilon must be in (0, 1]")
	}
	p.Epsilon = eps
	p.InvDelta = int(math.Ceil(8 / eps))
	return p
}

// Delta returns δ = 1/InvDelta.
func (p Params) Delta() float64 { return 1 / float64(p.InvDelta) }

// Validate panics on nonsensical parameters (programmer error).
func (p Params) Validate() {
	switch {
	case p.Epsilon <= 0 || p.Epsilon > 1:
		panic("core: Epsilon out of range")
	case p.InvDelta < 1 || p.InvDelta >= SlotMax:
		panic("core: InvDelta outside [1, SlotMax)")
	case p.KWise < 2:
		panic("core: KWise < 2")
	case p.Slack <= 0:
		panic("core: Slack <= 0")
	case p.ThresholdFrac <= 0 || p.ThresholdFrac > 1:
		panic("core: ThresholdFrac out of (0,1]")
	}
}

// DegreeClasses is the partition C_1..C_K of Section 3: class i holds the
// nodes with b_{i-1} <= d(v) < b_i where b_i = ceil(n^{i/K}) (b_0 = 1).
// Isolated nodes (d = 0) get class 0, outside the partition.
type DegreeClasses struct {
	N      int
	K      int
	Bounds []uint64 // Bounds[i] = ceil(n^{i/K}) for i = 0..K; Bounds[0] = 1
	n01d   float64  // n^{0.1δ}, DevTerm's seed- and group-independent factor
	gamma  int      // γ = max(2, ceil(n^{4δ})), see GroupSize
}

// dcCache memoises the most recent DegreeClasses. The boundaries are a pure
// function of (n, k), n is the (round-invariant) id-space size and k the
// configured 1/δ, so the round loops ask for the same table every iteration
// — and computing it runs math/big exponentiations that would otherwise
// dominate a warm solve's allocations. A single-slot atomic cache suffices:
// the value is immutable after construction, so racing solves at worst
// recompute.
var dcCache atomic.Pointer[DegreeClasses]

// NewDegreeClasses precomputes class boundaries for an n-node graph with
// K = 1/δ classes.
func NewDegreeClasses(n, k int) *DegreeClasses {
	if n < 1 || k < 1 {
		panic("core: NewDegreeClasses requires n, k >= 1")
	}
	if c := dcCache.Load(); c != nil && c.N == n && c.K == k {
		return c
	}
	bounds := make([]uint64, k+1)
	bounds[0] = 1
	for i := 1; i <= k; i++ {
		bounds[i] = intmath.CeilPow(uint64(n), i, k)
		if bounds[i] <= bounds[i-1] {
			bounds[i] = bounds[i-1] + 1 // keep bands non-degenerate at tiny n
		}
	}
	dc := &DegreeClasses{N: n, K: k, Bounds: bounds, n01d: math.Pow(float64(n), 0.1/float64(k))}
	dc.gamma = max(2, int(intmath.CeilPow(uint64(n), 4, k)))
	dcCache.Store(dc)
	return dc
}

// Class returns the class index in [1, K] of a node with degree d, or 0 for
// d <= 0 (isolated).
func (c *DegreeClasses) Class(d int) int {
	if d <= 0 {
		return 0
	}
	for i := 1; i <= c.K; i++ {
		if uint64(d) < c.Bounds[i] {
			return i
		}
	}
	return c.K
}

// StageCount returns the number of subsampling stages for class i: the
// paper's i-4 for i >= 5, otherwise 0 (Sections 3.2 and 4.2).
func StageCount(i int) int {
	if i <= 4 {
		return 0
	}
	return i - 4
}

// GroupSize returns the machine-group size γ = ceil(n^{4δ}) (at least 2)
// used when a node's incident edges (or neighbours) are spread over
// type-A/B machines. It is computed once, in NewDegreeClasses.
func (c *DegreeClasses) GroupSize() int { return c.gamma }

// StageThreshold returns the field threshold t such that h(x) < t samples x
// with probability floor(p·n^{-δ})/p, i.e. as close to exactly n^{-δ} as the
// field admits (the paper's h(e) <= n^{3-δ} over range n³). Using the exact
// real-valued rate instead of ceil(n^δ) matters at laptop scale: rounding
// the rate down compounds over i-4 stages and can empty the sample.
func StageThreshold(p uint64, n, k int) uint64 {
	rate := math.Pow(float64(n), -1/float64(k))
	t := uint64(rate * float64(p))
	if t < 1 {
		t = 1
	}
	if t > p {
		t = p
	}
	return t
}

// DevTerm returns the concentration deviation n^{0.1δ}·√ex used by the
// goodness predicates of Sections 3.2 and 4.2 (as a float; callers multiply
// by Params.Slack). n^{0.1δ} is computed once, in NewDegreeClasses.
func (c *DegreeClasses) DevTerm(ex int) float64 {
	return c.n01d * math.Sqrt(float64(ex))
}

// ComputeXInto writes the good-node indicator of Luby's matching analysis
// (Lemma 3) into dst (length N): v ∈ X iff at least d(v)/3 neighbours u
// have d(u) <= d(v). deg must be the degree slice of g. The scan, n + 2m
// words, is sharded over vertex ranges on up to `workers` host workers;
// each vertex's indicator is independent, so the result is identical at
// any worker count. Every slot is assigned, so a dirty destination cannot
// leak into the result.
func ComputeXInto(dst []bool, g *graph.Graph, deg []int, workers int) []bool {
	if len(dst) != g.N() {
		panic("core: ComputeXInto length mismatch")
	}
	parallel.ForEach(workers, g.N(), g.N()+2*g.M(), func(v int) {
		dv := deg[v]
		if dv == 0 {
			dst[v] = false
			return
		}
		cnt := 0
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if deg[u] <= dv {
				cnt++
			}
		}
		dst[v] = 3*cnt >= dv
	})
	return dst
}

// ZKey orders candidates deterministically by (hash value, id): the paper's
// "z_v < z_u" comparisons with the measure-zero ties broken by id so that
// candidate sets are well defined at any scale.
type ZKey struct {
	Z  uint64
	ID uint64
}

// Less reports strict precedence of a over b.
func (a ZKey) Less(b ZKey) bool {
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	return a.ID < b.ID
}

// EdgeMinScratch is the reusable working state of the edge selection: the
// flat fold tables of dense rounds, the epoch-stamped per-node minimum
// tables of sparse ones, the per-edge key buffer, and the output buffer.
// Seed searches evaluate the selection once per candidate seed, so keeping
// this state for the whole solve (in an EdgeGroup) removes the dominant
// per-seed allocations of the matching path. The zero value is ready to use.
//
// Epoch-stamp invariant: a min-table slot min1[v] (or pmin1[v]) is
// meaningful only when stamp[v] == epoch, and epoch is advanced at the start
// of every selection call — so a call never reads state written by a
// previous call, and the O(n) eager clear of the tables is replaced by an
// O(1) generation bump plus stamping only the endpoints the edge list
// actually touches. When the uint32 generation counter wraps, the stamp
// array is hard-reset to zero (over its full capacity, so entries parked
// beyond the current id space cannot resurface with a recycled generation)
// and the counter restarts at 1; zero is never a live epoch, which is what
// keeps freshly grown (zeroed) stamp segments stale by construction. Reuse
// therefore changes memory lifetimes only, never any computed value — the
// property selection_equiv_test.go pins against eager-reset references,
// including across a forced wrap.
type EdgeMinScratch struct {
	fold  EdgeFold // dense rounds (EdgeSel.Fold): flat endpoint-min tables
	min1  []ZKey   // struct path: per-node minimum incident key
	pmin1 []uint64 // packed path: same, (z, id) fused into one word
	stamp []uint32 // shared by both stamped paths: slot v valid iff stamp[v] == epoch
	epoch uint32
	keys  []ZKey
	pkeys []uint64
	out   []graph.Edge
}

// NextEpoch advances a stamp table's generation counter and returns the new
// live generation. This is THE implementation of the epoch-stamp invariant
// (every stamped structure in the repository goes through it, so the subtle
// parts live in exactly one place): on uint32 wrap the stamp array is
// cleared over its FULL capacity — entries parked beyond the current id
// space must not resurface with a recycled generation — and the counter
// restarts at 1, so zero is never a live generation and freshly allocated
// (zeroed) stamp segments are stale by construction.
func NextEpoch(stamp []uint32, epoch *uint32) uint32 {
	*epoch++
	if *epoch == 0 {
		clear(stamp[:cap(stamp)])
		*epoch = 1
	}
	return *epoch
}

// nextEpoch grows the stamp table to cover n ids and advances the
// generation, hard-resetting on wrap (see the type comment).
func (s *EdgeMinScratch) nextEpoch(n int) uint32 {
	s.stamp = graph.Grow(s.stamp, n)
	return NextEpoch(s.stamp, &s.epoch)
}

// EdgeSel is the seed-independent half of a Section 3.3 selection round:
// the edge list with its canonical id keys and the packed-representation
// decision. Seed searches build it once per round (EdgeSelInit) and then
// evaluate thousands of candidate seeds through LocalMinEdgesSel, so the
// per-edge e.Key(n) computation and the packed-path feasibility check are
// paid once instead of once per seed. After Init an EdgeSel is read-only.
type EdgeSel struct {
	edges  []graph.Edge
	ekeys  []uint64 // ekeys[idx] = edges[idx].Key(n)
	n      int
	idBits uint
	packed bool
	// foldBits/fold describe the EdgeFold representation (z<<foldBits | other
	// endpoint, per-node tables): fold is set iff the round is dense enough
	// for flat tables AND every live fold key is strictly below the all-ones
	// sentinel. See EdgeFoldScatter.
	foldBits uint
	fold     bool
}

// Fold reports whether this round qualifies for the flat-table selection
// (EdgeFold): the packed endpoint representation must be exact under the
// round's zMax with the all-ones sentinel unreachable, and the round must be
// dense (n <= 4|edges|) so the per-seed flat table wipe is cheaper than the
// epoch bookkeeping it replaces. Sparse or unpackable rounds keep the
// epoch-stamped two-pass scan of LocalMinEdgesSel.
func (sel *EdgeSel) Fold() bool { return sel.fold }

// EdgeSelInit fills sel for one round: edges is the round's canonical edge
// list over an n-id graph, ekeys is the caller's key buffer (typically a
// scratch checkout; it is appended into from [:0] and retained), and zMax
// is an inclusive upper bound on every z value later passed to
// LocalMinEdgesSel — the field size minus one for hash-kernel callers. The
// packed single-word fast path is taken iff every (z, id) pair fits one
// uint64 under that bound, decided here in O(1) instead of by an O(m) scan
// per seed.
func EdgeSelInit(sel *EdgeSel, n int, edges []graph.Edge, ekeys []uint64, zMax uint64) {
	sel.edges = edges
	sel.n = n
	ekeys = ekeys[:0]
	for _, e := range edges {
		ekeys = append(ekeys, e.Key(n))
	}
	sel.ekeys = ekeys
	sel.idBits, sel.packed = 0, false
	sel.foldBits, sel.fold = 0, false
	if n >= 2 {
		sel.idBits = uint(bits.Len64(uint64(n)*uint64(n) - 1))
		sel.packed = zMax>>(64-sel.idBits) == 0
		// The fold representation packs (z, other endpoint) rather than
		// (z, edge key), so it affords a narrower id field — but its tables
		// use all-ones as the "no incident edge" sentinel, so a live key must
		// never be able to reach it: zMax must sit STRICTLY below the sentinel
		// prefix (always true for the repository's ~SlotMax·n² hash fields).
		// A density gate keeps the per-seed table wipe below the epoch
		// bookkeeping it replaces.
		fb := uint(bits.Len64(uint64(n) - 1))
		sel.foldBits = fb
		sel.fold = zMax < ^uint64(0)>>fb && n <= 4*len(edges)
	}
}

// LocalMinEdgesSel runs one selection against a per-round EdgeSel plan:
// z[idx] is the hash value of sel's edge idx under the candidate seed. It
// returns the candidate matching E_h of Section 3.3: the edges whose (z, key)
// is strictly smaller than every adjacent edge's, i.e. the minimum at BOTH
// endpoints — keys are unique per edge, so a single min table suffices and
// the result is always a matching. Dense rounds (sel.Fold()) merge into a
// flat EdgeFold table and decode the mutual argmins; the others use
// epoch-stamped per-node tables (see EdgeMinScratch), so a call costs
// O(|edges|): only the endpoints the round's edge list touches are ever
// (re)initialised, not the full id space. Both disciplines select the same
// edges in the same (canonical) order. The returned slice aliases s.out and
// is valid until the next call with the same scratch.
//
//det:hotpath
func LocalMinEdgesSel(s *EdgeMinScratch, sel *EdgeSel, z []uint64) []graph.Edge {
	edges, ekeys := sel.edges, sel.ekeys
	if len(z) != len(edges) {
		panic("core: LocalMinEdgesSel z/edges length mismatch")
	}
	if sel.fold {
		tab := s.fold.Begin(sel, 1)[0]
		EdgeFoldScatter(tab, sel, 0, len(edges), z)
		s.out = EdgeFoldDecode(s.out, tab, sel)
		return s.out
	}
	ep := s.nextEpoch(sel.n)
	stamp := s.stamp
	if sel.packed {
		idBits := sel.idBits
		s.pmin1 = graph.Grow(s.pmin1, sel.n)
		s.pkeys = graph.Grow(s.pkeys, len(edges))
		min1, keys := s.pmin1, s.pkeys[:len(edges)]
		// Only the endpoints the edge list touches are ever stamped and
		// (re)initialised — no id-space-wide clear. The merge is
		// branchless: whether an endpoint's slot is stale and whether the
		// new key undercuts it both depend on the (effectively random) hash
		// values, so branches here mispredict heavily. Instead, a stale
		// slot's value is forced to all-ones by OR-ing a mask derived from
		// stamp[v] ^ ep (nonzero iff stale), the min is a compare the
		// compiler lowers to a conditional move, and the stamp and table
		// stores are unconditional.
		for idx, e := range edges {
			k := z[idx]<<idBits | ekeys[idx]
			keys[idx] = k
			u, v := e.U, e.V
			su := uint64(stamp[u] ^ ep)
			mu := min1[u] | -((su | -su) >> 63)
			if k < mu {
				mu = k
			}
			stamp[u] = ep
			min1[u] = mu
			sv := uint64(stamp[v] ^ ep)
			mv := min1[v] | -((sv | -sv) >> 63)
			if k < mv {
				mv = k
			}
			stamp[v] = ep
			min1[v] = mv
		}
		// Output pass: an edge is selected iff its key is the minimum at
		// both endpoints. Compaction is branchless — the edge is stored
		// unconditionally and the cursor advances by a flag derived from
		// the two equality checks, because "is this edge an argmin" is
		// random enough that a conditional append mispredicts on a large
		// fraction of edges (every distinct endpoint has one argmin).
		outBuf := graph.Grow(s.out, len(edges))[:len(edges)]
		cnt := 0
		for idx, e := range edges {
			k := keys[idx]
			d := (min1[e.U] ^ k) | (min1[e.V] ^ k)
			outBuf[cnt] = e
			cnt += int(1 ^ (d|-d)>>63)
		}
		s.out = outBuf[:cnt]
		return s.out
	}
	s.min1 = graph.Grow(s.min1, sel.n)
	s.keys = graph.Grow(s.keys, len(edges))
	min1, keys := s.min1, s.keys[:len(edges)]
	for idx, e := range edges {
		k := ZKey{z[idx], ekeys[idx]}
		keys[idx] = k
		if stamp[e.U] != ep {
			stamp[e.U] = ep
			min1[e.U] = k
		} else if k.Less(min1[e.U]) {
			min1[e.U] = k
		}
		if stamp[e.V] != ep {
			stamp[e.V] = ep
			min1[e.V] = k
		} else if k.Less(min1[e.V]) {
			min1[e.V] = k
		}
	}
	out := s.out[:0]
	for idx, e := range edges {
		if k := keys[idx]; min1[e.U] == k && min1[e.V] == k {
			out = append(out, e) //det:allow hotalloc arena-backed s.out reuses prior-round capacity, growth only on cold solves
		}
	}
	s.out = out
	return out
}

// NodeSel is the seed-independent half of a Section 4.3 selection round:
// the live candidate list (the nodes the round's inQ mask admits, in
// ascending id order), their hash-key vector, and an epoch-stamped position
// index mapping a node id to its slot in the per-seed z vector. Seed
// searches build it once per round (Init) and evaluate every candidate seed
// with one hashfam EvalKeys pass over Keys() — length |live|, not the full
// id space — followed by LocalMinNodesSel. The epoch-stamp invariant is the
// one documented on EdgeMinScratch: pos[v] is meaningful iff
// stamp[v] == epoch, Init advances the generation, and a uint32 wrap
// hard-resets the stamp array over its full capacity with the counter
// restarting at 1, so reuse across rounds (and across solves, when checked
// out of a pooled scratch.Context) can never leak a stale position. After
// Init a NodeSel is read-only. The zero value is ready to use.
type NodeSel struct {
	live   []graph.NodeID
	keys   []uint64
	pos    []int32
	stamp  []uint32
	epoch  uint32
	n      int
	idBits uint
	packed bool
	// gen counts Init/InitList calls over the plan's whole lifetime (never
	// reset, uint64 so it never wraps in practice). NodeFold keys its
	// once-per-round table wipes on (plan pointer, gen), so a fold scratch
	// can tell "same round, table rows already sentinel at dead slots" from
	// "new round, rewipe" without the plan knowing its consumers.
	gen uint64
	// dense marks rounds that qualify for the flat-table selection
	// (NodeFold + LocalMinNodesSelIn's dense branch): packed keys whose
	// maximum stays strictly below the all-ones "dead slot" sentinel, over
	// a live set covering at least a quarter of the id space (n <= 4|live|),
	// so wiping a full table once per round beats stamp checks on every
	// neighbour probe. Sparse rounds keep the epoch-stamped
	// LocalMinNodesSel scan.
	dense bool
}

// Init fills sel for one round: inQ masks the candidates over an n-id
// graph, keyOf supplies each candidate's (seed-independent) hash key, and
// zMax is an inclusive upper bound on every z value later passed to
// LocalMinNodesSel. Cost is one O(n) mask scan plus O(|live|) stamping —
// paid once per round, where the eager alternative pays the id-space scan
// once per candidate seed.
func (sel *NodeSel) Init(n int, inQ []bool, keyOf func(graph.NodeID) uint64, zMax uint64) {
	ep := sel.begin(n)
	live := graph.Grow(sel.live, n)[:0]
	keys := graph.Grow(sel.keys, n)[:0]
	for v := 0; v < n; v++ {
		if !inQ[v] {
			continue
		}
		sel.pos[v] = int32(len(live))
		sel.stamp[v] = ep
		live = append(live, graph.NodeID(v))
		keys = append(keys, keyOf(graph.NodeID(v)))
	}
	sel.live = live
	sel.keys = keys
	sel.finish(n, zMax)
}

// InitList is Init for callers that already hold the round's candidate list:
// ids must be ascending and duplicate-free — exactly the list the Init mask
// scan would produce — and the plan it builds is bit-identical to Init with
// the corresponding mask, without the O(n) scan over the id space. The round
// loops use it where the candidate set arrives as a list anyway (the
// sparsified Q' of the MIS path, the MISNodes live list of the lowdeg
// phases and of luby's MIS), which removes the last per-round term
// proportional to the full id space from those paths. The list is copied;
// the caller may reuse it.
func (sel *NodeSel) InitList(n int, ids []graph.NodeID, keyOf func(graph.NodeID) uint64, zMax uint64) {
	ep := sel.begin(n)
	live := graph.Grow(sel.live, len(ids))[:0]
	keys := graph.Grow(sel.keys, len(ids))[:0]
	for _, v := range ids {
		sel.pos[v] = int32(len(live))
		sel.stamp[v] = ep
		live = append(live, v)
		keys = append(keys, keyOf(v))
	}
	sel.live = live
	sel.keys = keys
	sel.finish(n, zMax)
}

// begin sizes the stamped position index for an n-id round and advances the
// generation (shared prologue of Init and InitList).
func (sel *NodeSel) begin(n int) uint32 {
	sel.n = n
	sel.gen++
	sel.pos = graph.Grow(sel.pos, n)
	sel.stamp = graph.Grow(sel.stamp, n)
	return NextEpoch(sel.stamp, &sel.epoch)
}

// finish records the packed-path and dense-path decisions (shared epilogue
// of Init and InitList): packed iff every z value under the caller's bound
// fits above an id field of Len(n-1) bits in one word, dense additionally
// iff no live packed key can collide with NodeFold's all-ones sentinel and
// the live set covers at least a quarter of the id space (so a flat table
// wipe amortises against the per-seed epoch bookkeeping it replaces).
func (sel *NodeSel) finish(n int, zMax uint64) {
	sel.idBits, sel.packed, sel.dense = 0, false, false
	if n >= 2 {
		sel.idBits = uint(bits.Len64(uint64(n) - 1))
		sel.packed = zMax>>(64-sel.idBits) == 0
		sel.dense = zMax < ^uint64(0)>>sel.idBits && n <= 4*len(sel.live)
	}
}

// Live returns the candidate ids in ascending order, valid until the next
// Init.
func (sel *NodeSel) Live() []graph.NodeID { return sel.live }

// Keys returns the candidates' hash-key vector, parallel to Live(): the
// once-per-round input of the per-seed EvalKeys passes.
func (sel *NodeSel) Keys() []uint64 { return sel.keys }

// LocalMinNodesSel returns the candidate independent set I_h of Section 4.3
// against a per-round NodeSel plan: z[i] is the hash value of sel.Live()[i]
// under the candidate seed (one EvalKeys pass over sel.Keys()). A candidate
// joins I_h iff its (z, id) is strictly smaller than every live
// q-neighbour's, so the result is always independent in q. Candidates are
// visited in ascending id order and a neighbour is live iff the plan admits
// it, so the scan touches only candidates and their incidences, never the
// full id space.
//
//det:hotpath
func LocalMinNodesSel(dst []graph.NodeID, q *graph.Graph, sel *NodeSel, z []uint64) []graph.NodeID {
	if len(z) < len(sel.live) {
		panic("core: LocalMinNodesSel z vector shorter than live set")
	}
	ep, stamp, pos := sel.epoch, sel.stamp, sel.pos
	out := dst[:0]
	if sel.packed {
		idBits := sel.idBits
		for i, v := range sel.live {
			kv := z[i]<<idBits | uint64(v)
			isMin := true
			for _, u := range q.Neighbors(v) {
				if stamp[u] == ep && kv >= z[pos[u]]<<idBits|uint64(u) {
					isMin = false
					break
				}
			}
			if isMin {
				out = append(out, v) //det:allow hotalloc appends into caller-grown dst, capacity reserved by the scratch arena
			}
		}
		return out
	}
	for i, v := range sel.live {
		kv := ZKey{z[i], uint64(v)}
		isMin := true
		for _, u := range q.Neighbors(v) {
			if stamp[u] == ep && !kv.Less(ZKey{z[pos[u]], uint64(u)}) {
				isMin = false
				break
			}
		}
		if isMin {
			out = append(out, v) //det:allow hotalloc appends into caller-grown dst, capacity reserved by the scratch arena
		}
	}
	return out
}

// NodeFold is the flat-table scratch of the dense node selection:
// one n-word table, tab[v] = z_v<<idBits | v for live v and the all-ones
// sentinel for dead v. The selection scan then probes ONE word per neighbour
// — where the stamped path loads stamp[u], pos[u] and z[pos[u]] and
// reassembles the packed key per probe — while keeping the same early-exit
// loop shape (a dead neighbour's sentinel can never disqualify a live key,
// because a dense plan keeps live keys strictly below it).
//
// The table is wiped to the sentinel once per ROUND, not once per seed:
// within a round the live set is fixed, every seed's scatter plainly
// overwrites all live slots, and dead slots keep the sentinel — so after the
// first wipe the table is reusable by construction. table keys the wipe on
// the plan's (pointer, generation) pair. The zero value is ready to use;
// each NodeGroup holds one.
type NodeFold struct {
	tab   []uint64
	owner *NodeSel
	gen   uint64
}

// table returns the selection table of sel's id space, sentinel-filled at
// every slot no scatter of the current round has overwritten: it is rewiped
// only on a new round (plan pointer or generation change) or a different id
// space.
//
//det:hotpath
func (f *NodeFold) table(sel *NodeSel) []uint64 {
	n := sel.n
	if f.owner != sel || f.gen != sel.gen || len(f.tab) != n {
		f.tab = graph.Grow(f.tab, n)
		intmath.Fill64(f.tab, ^uint64(0))
		f.owner, f.gen = sel, sel.gen
	}
	return f.tab
}

// NodeFoldScatter writes the packed key of every live candidate into a
// NodeFold table: tab[v] = z[i]<<idBits | v for v = sel.Live()[i]. The store
// is a plain overwrite (each live slot is written exactly once per seed),
// which is what makes the once-per-round wipe sound.
//
//det:hotpath
func NodeFoldScatter(tab []uint64, sel *NodeSel, z []uint64) {
	b := sel.idBits
	for i, v := range sel.live {
		tab[v] = z[i]<<b | uint64(v)
	}
}

// NodeFoldSelect runs the dense selection scan against a fully scattered
// table: a candidate joins I_h iff its packed key is strictly smaller than
// every neighbour's table word. Dead neighbours read the all-ones sentinel,
// which no live key of a dense plan can reach, so they are skipped without a
// stamp check — the inner loop is one load and one compare per probed neighbour,
// early-exiting on the first disqualifier exactly like the stamped scan, so
// the output is bit-identical to LocalMinNodesSel on the same z vector.
// Output compaction is branchless (unconditional store, flag-advanced
// cursor): whether a candidate survives is hash-random, so a conditional
// append would mispredict on a large fraction of candidates.
//
//det:hotpath
func NodeFoldSelect(dst []graph.NodeID, q *graph.Graph, sel *NodeSel, tab []uint64) []graph.NodeID {
	live := sel.live
	out := graph.Grow(dst, len(live))[:len(live)]
	cnt := 0
	for _, v := range live {
		kv := tab[v]
		flag := 1
		for _, u := range q.Neighbors(v) {
			if kv >= tab[u] {
				flag = 0
				break
			}
		}
		out[cnt] = v
		cnt += flag
	}
	return out[:cnt]
}

// LocalMinNodesSelIn is LocalMinNodesSel with a caller-owned NodeFold: dense
// rounds (see NodeSel.dense) scatter the full z vector into a flat table and
// run the single-word-probe scan, sparse rounds fall through to the
// epoch-stamped path. Results are bit-identical either way — the
// dense/stamped/eager equivalence table in core's tests pins it — so every
// full-vector node selection (NodeGroup.Select) goes through here and lets
// the plan pick the discipline per round.
//
//det:hotpath
func LocalMinNodesSelIn(f *NodeFold, dst []graph.NodeID, q *graph.Graph, sel *NodeSel, z []uint64) []graph.NodeID {
	if !sel.dense {
		return LocalMinNodesSel(dst, q, sel, z)
	}
	if len(z) < len(sel.live) {
		panic("core: LocalMinNodesSelIn z vector shorter than live set")
	}
	tab := f.table(sel)
	NodeFoldScatter(tab, sel, z)
	return NodeFoldSelect(dst, q, sel, tab)
}

// EdgeFold is the flat-table scratch of the fused edge selection:
// one n-word table per in-flight seed, tab[v] = min over v's incident edges
// of z<<foldBits | (other endpoint), all-ones where no edge touched v. For a
// fixed endpoint v the canonical edge key e.Key(n) is strictly increasing in
// the other endpoint (all three orderings of u, v1 < v2 preserve it), so
// ordering incident edges by (z, other endpoint) IS the (z, key) order of
// the stamped scan — the fold representation affords an id field of
// Len(n-1) bits instead of Len(n²-1) while selecting identical edges.
//
// Unlike NodeFold's plain-overwrite table these are MIN accumulators, so
// Begin wipes them per seed, not per round — which is why EdgeSel.Fold
// carries a density gate. The zero value is ready to use; each
// EdgeMinScratch holds one.
type EdgeFold struct {
	buf  []uint64
	rows [][]uint64
}

// Begin returns s sentinel-wiped per-seed tables of sel.n words each (the
// selection asks for one), wiped eagerly because the fold merges with min:
// a stale smaller key from a previous seed would corrupt.
//
//det:hotpath
func (f *EdgeFold) Begin(sel *EdgeSel, s int) [][]uint64 {
	n := sel.n
	if need := s * n; cap(f.buf) < need {
		f.buf = make([]uint64, need) //det:allow hotalloc table realloc on first use or growth, wiped and reused across rounds
	}
	if cap(f.rows) < s {
		f.rows = make([][]uint64, s) //det:allow hotalloc table realloc on first use or growth, wiped and reused across rounds
	}
	rows := f.rows[:s]
	for i := range rows {
		row := f.buf[i*n : (i+1)*n : (i+1)*n]
		intmath.Fill64(row, ^uint64(0))
		rows[i] = row
	}
	return rows
}

// EdgeFoldScatter min-merges edges lo..hi-1 into a table: z[i] is the hash
// value of sel's edge lo+i, and each edge updates both endpoint slots with
// its packed (z, other endpoint) key. Scattering a key vector in blocks, in
// any order, leaves the same table as one full scatter. Merges are the
// load–min–store shape the compiler lowers to conditional moves.
//
//det:hotpath
func EdgeFoldScatter(tab []uint64, sel *EdgeSel, lo, hi int, z []uint64) {
	b := sel.foldBits
	edges := sel.edges
	for idx := lo; idx < hi; idx++ {
		e := edges[idx]
		zs := z[idx-lo] << b
		ku := zs | uint64(e.V)
		mu := tab[e.U]
		if ku < mu {
			mu = ku
		}
		tab[e.U] = mu
		kv := zs | uint64(e.U)
		mv := tab[e.V]
		if kv < mv {
			mv = kv
		}
		tab[e.V] = mv
	}
}

// EdgeFoldDecode appends the selected matching of a fully merged table to
// dst[:0]: edge {u,v} is selected iff it is the argmin at BOTH endpoints,
// i.e. tab[u] points at v and tab[v] points back at u with the same z. The
// scan walks ids ascending and emits at the smaller endpoint; selected edges
// form a matching (distinct smaller endpoints), so the output is exactly the
// canonical-edge-order output of the stamped scan's compaction pass.
//
//det:hotpath
func EdgeFoldDecode(dst []graph.Edge, tab []uint64, sel *EdgeSel) []graph.Edge {
	b := sel.foldBits
	mask := uint64(1)<<b - 1
	out := dst[:0]
	for u := 0; u < sel.n; u++ {
		t := tab[u]
		if t == ^uint64(0) {
			continue
		}
		v := t & mask
		if v <= uint64(u) {
			continue
		}
		if tab[v] == t&^mask|uint64(u) {
			out = append(out, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)}) //det:allow hotalloc appends into caller-grown dst, capacity reserved by the scratch arena
		}
	}
	return out
}

// SlotMax is the number of domain-separation slots in the hash input space
// (see SlotKey).
const SlotMax = 64

// EdgeField returns the minimum field size of the hash families used for a
// graph with n nodes, max(SlotMax·n², 1024); hashfam.New picks the least
// prime at least that large. The n² covers node ids and canonical edge
// keys; the SlotMax factor leaves room for the domain-separation slots that
// give every subsampling stage fresh independent values even when the seed
// search lands on the same seed (the paper's [n³] range plays the same
// role: it decouples the per-stage hash values). Ties are broken by id
// (substitution 6 of the repro package documentation).
func EdgeField(n int) uint64 {
	min := SlotMax * uint64(n) * uint64(n)
	if min < 1024 {
		min = 1024
	}
	return min
}

// SlotKey maps a raw key (< n²) into domain-separation slot `slot`:
// different slots never collide, so h(SlotKey(x, j)) for j = 1, 2, ... are
// independent values even under one seed. Slot 0 is the identity and is
// used by the matching/MIS selection steps; stage j uses slot j.
func SlotKey(x uint64, slot, n int) uint64 {
	if slot < 0 || slot >= SlotMax {
		panic("core: slot out of range")
	}
	return x + uint64(slot)*uint64(n)*uint64(n)
}

// SlotKeysInto appends the slot-separated hash key of every edge to dst[:0]
// and returns it: the once-per-round key vector the batched seed searches
// evaluate candidate seeds against (hashfam.Evaluator.EvalKeys), instead of
// recomputing e.Key(n) + slot offset for every (seed, edge) pair. dst is
// typically checked out of a scratch.Context.
func SlotKeysInto(dst []uint64, edges []graph.Edge, slot, n int) []uint64 {
	if slot < 0 || slot >= SlotMax {
		panic("core: slot out of range")
	}
	off := uint64(slot) * uint64(n) * uint64(n)
	dst = dst[:0]
	for _, e := range edges {
		dst = append(dst, e.Key(n)+off)
	}
	return dst
}

// PairwiseFamily returns the 2-wise independent family over the graph's
// field (used by the matching/MIS selection steps, Lemma 13/21 need only
// pairwise independence).
func PairwiseFamily(n int) hashfam.Family {
	return hashfam.New(EdgeField(n), 2)
}

// KWiseFamily returns the c-wise independent family over the graph's field
// (used by the stage subsampling, Lemma 9).
func KWiseFamily(n, c int) hashfam.Family {
	return hashfam.New(EdgeField(n), c)
}
