// Package condexp implements the deterministic seed-selection procedures of
// Section 2.4 of the paper (the method of conditional expectations).
//
// The paper's setting: over a random hash function h from a k-wise
// independent family H, some objective q(h) = Σ_machines q_x(h) has
// E_h[q] >= Q, hence by the probabilistic method some h* in H has
// q(h*) >= Q. The MPC algorithm finds h* deterministically by fixing the
// O(log n)-bit seed in Θ(log S)-bit chunks, machines voting on each chunk
// with conditional expectations — O(1) rounds per chunk because local
// computation is free in the MPC model.
//
// On a laptop local computation is not free, so the default procedure is
// SearchAtLeast: scan the family in its fixed enumeration order, evaluating
// batches of up to S candidate seeds per charged O(1)-round AllReduce (each
// machine evaluates every candidate on its local data; the summed vector
// tells everyone the first candidate meeting the threshold). The output is
// deterministic — the first seed in enumeration order with q(seed) >= Q —
// and termination is guaranteed whenever the expectation bound actually
// holds for the finite family. DESIGN.md discusses this substitution; the
// exact chunk-by-chunk method is also implemented (SearchConditional) and
// tested against SearchAtLeast on small families.
package condexp

import (
	"errors"

	"repro/internal/hashfam"
	"repro/internal/parallel"
	"repro/internal/simcost"
)

// Objective evaluates the global objective for a full seed. Implementations
// must be safe for concurrent calls (seed slices are never shared between
// concurrent calls).
type Objective func(seed []uint64) int64

// BatchObjective evaluates one whole batch of candidate seeds against
// shared per-round state: it must set values[i] = q(seeds[i]) for every i,
// with slot i depending only on seeds[i]. This is the vectorized form the
// hash-kernel seed searches use — the caller hands the batch's whole seed
// matrix over at once, so the implementation can evaluate block-major:
// groups of BlockSeeds seeds per cache-resident key block through
// hashfam.Evaluator.EvalSeedsBlocked into a hashfam.Tile (see
// ForEachSeedBlock), amortising one pass of key-vector memory traffic over
// the group. Results stay bit-identical at any worker count — and identical
// to per-seed EvalKeys evaluation — because slots are independent and the
// blocked kernel is byte-equal to the seed-major one.
type BatchObjective func(seeds [][]uint64, values []int64)

// BlockSeeds is the seed-group width of the blocked evaluation path: how
// many candidate seeds a BatchObjective evaluates per cache-resident key
// block in one EvalSeedsBlocked call. Eight pairwise seeds keep the S×block
// output tile at 8·4KB alongside the key block, inside L2 with room to
// spare, while amortising the key-vector read traffic 8 ways. It also sets
// the granularity ForEachSeedBlock fans groups out at, so batch sizes (the
// default Options.BatchSize is 64) should be multiples of it for even
// worker utilisation — but any batch length works, the last group just runs
// short.
const BlockSeeds = 8

// ForEachSeedBlock partitions a batch of batchLen seeds into contiguous
// groups of BlockSeeds (the last group may be shorter) and invokes
// fn(lo, hi) for each group [lo, hi) on up to `workers` goroutines of the
// shared internal/parallel pool. Group boundaries derive from batchLen and
// BlockSeeds alone — never from the worker count — and every group touches
// only its own seeds' value slots and per-worker scratch, so the repo's
// determinism contract holds at any parallelism level. This is the fan-out
// scaffold of the blocked BatchObjectives in matching/mis/lowdeg/sparsify.
func ForEachSeedBlock(workers, batchLen int, fn func(lo, hi int)) {
	if batchLen <= 0 {
		return
	}
	groups := (batchLen + BlockSeeds - 1) / BlockSeeds
	parallel.RunShards(workers, groups, func(g int) {
		lo := g * BlockSeeds
		hi := lo + BlockSeeds
		if hi > batchLen {
			hi = batchLen
		}
		fn(lo, hi)
	})
}

// Options configure a search.
type Options struct {
	// BatchSize is the number of candidate seeds evaluated per charged
	// O(1)-round batch. Defaults to the model's S (or 64 without a model),
	// and is clamped to S when a model is present: a machine must be able
	// to hold the per-candidate partial objectives.
	BatchSize int
	// MaxSeeds bounds the scan. 0 means DefaultMaxSeeds. When the bound is
	// hit the best seed seen so far is returned with Found == false.
	MaxSeeds int
	// Model, when non-nil, is charged one seed batch per batch of
	// evaluations under Label.
	Model *simcost.Model
	// Label attributes charged rounds. Defaults to "condexp".
	Label string
	// Workers is the number of host workers evaluating candidate seeds
	// within a batch on the shared internal/parallel pool, following the
	// repo-wide convention of parallel.Workers: 0 (default) means one
	// worker per logical CPU, 1 forces serial evaluation. The result is
	// bit-identical at any worker count (the first qualifying seed in
	// enumeration order is selected); only wall-clock time changes.
	Workers int
	// Done, when non-nil, is polled once per batch boundary — before each
	// charged batch evaluation, never inside one — and a true return stops
	// the scan: the search returns the best seed seen so far with
	// Result.Canceled set and no error. Searches that run to completion are
	// bit-identical to Done == nil; this is the request-cancellation seam of
	// the round loops (core.Params.Done threads through here).
	Done func() bool
	// OnBatch, when non-nil, receives one BatchStat per charged batch
	// evaluation, synchronously from the search's coordinating goroutine and
	// in enumeration order — batches are flushed serially regardless of
	// Workers, so the stat stream is bit-identical at any worker count. It
	// is pure observation: the scan's selection rule, charges and results
	// are unchanged, and a nil OnBatch costs nothing. This is the
	// seed-batch-granular seam the observer API (core.RoundEvent.Batches)
	// threads through.
	OnBatch func(BatchStat)
}

// BatchStat describes one charged batch of a seed search, as delivered to
// Options.OnBatch immediately after the batch evaluated.
type BatchStat struct {
	// Batch is the 1-based index of the batch within this search.
	Batch int
	// Seeds is the number of candidate seeds the batch evaluated.
	Seeds int
	// SeedsTried is the cumulative candidate count including this batch.
	SeedsTried int
	// BestValue is the best objective value seen so far in the scan.
	BestValue int64
	// Found reports that this batch contained the first qualifying seed,
	// ending the search.
	Found bool
}

// DefaultMaxSeeds bounds seed scans when Options.MaxSeeds is 0. The theory
// guarantees a qualifying seed exists when the expectation bound holds; the
// cap exists so that mis-calibrated thresholds degrade to best-effort
// instead of hanging.
const DefaultMaxSeeds = 1 << 17

// Result reports the outcome of a search.
type Result struct {
	Seed       []uint64
	Value      int64
	Found      bool // Value >= the requested threshold
	SeedsTried int
	Batches    int
	// Canceled is set when Options.Done stopped the scan at a batch
	// boundary. Seed then holds the best candidate of the batches that DID
	// evaluate — or nil when cancellation hit before the first batch — so
	// callers must abandon the round rather than apply the seed.
	Canceled bool
}

// ErrEmptyFamily is returned when the family has no seeds to try.
var ErrEmptyFamily = errors.New("condexp: empty family")

func (o *Options) defaults() {
	if o.Label == "" {
		o.Label = "condexp"
	}
	if o.BatchSize <= 0 {
		if o.Model != nil {
			o.BatchSize = o.Model.S()
		}
		if o.BatchSize <= 0 {
			o.BatchSize = 64
		}
	}
	if o.Model != nil && o.BatchSize > o.Model.S() {
		o.BatchSize = o.Model.S()
	}
	if o.MaxSeeds <= 0 {
		o.MaxSeeds = DefaultMaxSeeds
	}
}

// SearchAtLeast scans the family in its canonical enumeration order and
// returns the first seed whose objective is at least threshold. If no seed
// qualifies within MaxSeeds, the best seed seen is returned with
// Found == false (callers treat that as "take the progress you got", which
// keeps the outer algorithms unconditionally correct). It is
// SearchAtLeastBatch with the per-seed objective fanned out over
// Options.Workers; kernel callers pass their own BatchObjective instead.
func SearchAtLeast(fam hashfam.Family, obj Objective, threshold int64, opts Options) (Result, error) {
	opts.defaults()
	return SearchAtLeastBatch(fam, func(seeds [][]uint64, values []int64) {
		evalBatch(seeds, values, obj, opts.Workers)
	}, threshold, opts)
}

// SearchAtLeastBatch is SearchAtLeast evaluating candidates a whole batch
// at a time through obj. The selection rule is unchanged — the first seed
// in enumeration order whose value meets the threshold — so a
// BatchObjective that matches a scalar objective slot-for-slot yields
// bit-identical results.
func SearchAtLeastBatch(fam hashfam.Family, obj BatchObjective, threshold int64, opts Options) (Result, error) {
	opts.defaults()
	enum := fam.Enumerate()
	best := Result{Value: -1 << 62}
	seedLen := fam.SeedLen()

	// One backing array serves every candidate seed of every batch (batch
	// slot i always reuses the same sub-slice), so the scan's allocation
	// cost is a small constant per search instead of one make per seed —
	// the searches run once per round of the outer algorithms, and the
	// Engine's allocation-flatness depends on them staying cheap.
	seedBuf := make([]uint64, opts.BatchSize*seedLen)
	batch := make([][]uint64, 0, opts.BatchSize)
	values := make([]int64, opts.BatchSize)
	tried := 0

	flush := func() (done bool) {
		if len(batch) == 0 {
			return false
		}
		if opts.Model != nil {
			opts.Model.ChargeSeedBatch(len(batch), opts.Label)
		}
		best.Batches++
		obj(batch, values[:len(batch)])
		for i, seed := range batch {
			v := values[i]
			if v > best.Value {
				best.Value = v
				best.Seed = append(best.Seed[:0], seed...)
			}
			if v >= threshold {
				// First qualifying seed in enumeration order wins.
				best.Value = v
				best.Seed = append(best.Seed[:0], seed...)
				best.Found = true
				break
			}
		}
		if opts.OnBatch != nil {
			// tried already counts this batch's seeds; all of them evaluated
			// even when the qualifying seed sits mid-batch (one AllReduce per
			// batch), so the cumulative count is exact.
			opts.OnBatch(BatchStat{
				Batch:      best.Batches,
				Seeds:      len(batch),
				SeedsTried: tried,
				BestValue:  best.Value,
				Found:      best.Found,
			})
		}
		if best.Found {
			return true
		}
		batch = batch[:0]
		return false
	}

	// The cancellation checkpoint: polled once per batch boundary, so a
	// search never stops mid-batch and a completed search is bit-identical
	// to an unobserved one.
	canceled := func() bool {
		if opts.Done != nil && opts.Done() {
			best.Canceled = true
			best.SeedsTried = tried - len(batch) // the pending batch never evaluated
			return true
		}
		return false
	}

	for tried < opts.MaxSeeds && enum.Next() {
		i := len(batch)
		seed := seedBuf[i*seedLen : (i+1)*seedLen : (i+1)*seedLen]
		copy(seed, enum.Seed())
		batch = append(batch, seed)
		tried++
		if len(batch) == opts.BatchSize {
			if canceled() {
				return best, nil
			}
			if flush() {
				best.SeedsTried = tried
				return best, nil
			}
		}
	}
	if canceled() {
		return best, nil
	}
	if flush() {
		best.SeedsTried = tried
		return best, nil
	}
	best.SeedsTried = tried
	if tried == 0 {
		return best, ErrEmptyFamily
	}
	return best, nil
}

// evalBatch fills out[i] = obj(batch[i]) using up to `workers` goroutines of
// the shared pool (0 = auto, per parallel.Workers). Each candidate writes
// only its own slot, so the batch result is identical at any worker count.
func evalBatch(batch [][]uint64, out []int64, obj Objective, workers int) {
	if w := parallel.Workers(workers); w <= 1 || len(batch) < 4 {
		for i, seed := range batch {
			out[i] = obj(seed)
		}
		return
	}
	parallel.ForEach(workers, len(batch), func(i int) {
		out[i] = obj(batch[i])
	})
}

// SearchConditional runs the textbook method of conditional expectations:
// fix the seed one field element at a time (one "chunk" of Θ(log p) bits,
// matching the paper's Θ(log S)-bit chunks); for each candidate value of the
// next element compute the *exact* conditional expectation of the objective
// by enumerating all completions, and keep the value with the maximum
// conditional expectation. The returned seed q satisfies
// q(seed) >= E_h[q(h)] by construction.
//
// Cost is Θ(p^k) objective evaluations, so this is only for small families;
// it exists to validate SearchAtLeast against the real method (tests) and
// for the exact-derandomization experiment.
func SearchConditional(fam hashfam.Family, obj Objective) ([]uint64, float64, error) {
	k := fam.SeedLen()
	p := fam.P()
	if _, ok := fam.NumSeeds(); !ok {
		return nil, 0, errors.New("condexp: family too large for exact conditional expectations")
	}
	prefix := make([]uint64, 0, k)
	var condExp float64
	for pos := 0; pos < k; pos++ {
		bestVal := uint64(0)
		bestExp := 0.0
		first := true
		for v := uint64(0); v < p; v++ {
			exp := suffixAverage(fam, obj, append(prefix, v))
			if first || exp > bestExp {
				bestVal, bestExp, first = v, exp, false
			}
		}
		prefix = append(prefix, bestVal)
		condExp = bestExp
	}
	return prefix, condExp, nil
}

// suffixAverage returns the average objective over all completions of the
// given seed prefix.
func suffixAverage(fam hashfam.Family, obj Objective, prefix []uint64) float64 {
	k := fam.SeedLen()
	p := fam.P()
	free := k - len(prefix)
	seed := make([]uint64, k)
	copy(seed, prefix)
	if free == 0 {
		return float64(obj(seed))
	}
	var total float64
	var count float64
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			total += float64(obj(seed))
			count++
			return
		}
		for v := uint64(0); v < p; v++ {
			seed[pos] = v
			rec(pos + 1)
		}
	}
	rec(len(prefix))
	return total / count
}

// FamilyMean returns the exact mean of the objective over the whole family
// (test helper for validating expectation bounds; Θ(p^k) evaluations).
func FamilyMean(fam hashfam.Family, obj Objective) (float64, error) {
	if _, ok := fam.NumSeeds(); !ok {
		return 0, errors.New("condexp: family too large to average")
	}
	return suffixAverage(fam, obj, nil), nil
}
