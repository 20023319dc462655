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
// batches of BatchSize candidate seeds per charged O(1)-round AllReduce
// (each machine evaluates every candidate on its local data; the summed
// vector tells everyone the first candidate meeting the threshold). Every
// solve batches by its model's S (core.Params.SeedSearch); only standalone
// callers, which pass no model, pick another size. The output is
// deterministic — the first seed in enumeration order with q(seed) >= Q —
// and termination is guaranteed whenever the expectation bound actually
// holds for the finite family. The host scores a batch's candidates one at
// a time, in enumeration order, and stops at the first that qualifies,
// while the model is still charged the whole batch, so the seed counts this
// package reports are the model's, not the host's. This is substitution 1
// of the repro package documentation (doc.go); the exact chunk-by-chunk
// method is also implemented (SearchConditional) and tested against
// SearchAtLeast on small families.
package condexp

import (
	"errors"

	"repro/internal/hashfam"
	"repro/internal/simcost"
)

// Objective evaluates the global objective for a full seed. A search calls
// it on its own goroutine, one candidate at a time, so an objective may
// keep its working state across calls. The seed slice is the enumerator's:
// it is valid only during the call and must not be modified.
type Objective func(seed []uint64) int64

// Options configure a search.
type Options struct {
	// BatchSize is the number of candidate seeds evaluated per charged
	// O(1)-round batch, at least 1. Solves pass their model's S: a machine
	// must be able to hold the per-candidate partial objectives, and the
	// model records a violation for a batch above S.
	BatchSize int
	// MaxSeeds bounds the scan. 0 means DefaultMaxSeeds. When the bound is
	// hit the best seed seen so far is returned with Found == false.
	MaxSeeds int
	// Model, when non-nil, is charged one seed batch per batch of
	// evaluations under Label. Every solve passes one; only standalone
	// callers leave it nil.
	Model *simcost.Model
	// Label names the search in the model's violation messages. Defaults
	// to "condexp".
	Label string
	// Done, when non-nil, is polled once per batch boundary — before each
	// charged batch evaluation, never inside one — and a true return stops
	// the scan: the search returns the best seed seen so far with
	// Result.Canceled set and no error. Searches that run to completion are
	// bit-identical to Done == nil; this is the request-cancellation seam of
	// the round loops (core.Params.Done threads through here).
	Done func() bool
	// OnBatch, when non-nil, receives one BatchStat per charged batch
	// evaluation, synchronously and in enumeration order. It is pure
	// observation: the scan's selection rule, charges and results are
	// unchanged, and a nil OnBatch costs nothing. This is the
	// seed-batch-granular seam the observer API (core.RoundEvent.Batches)
	// threads through.
	OnBatch func(BatchStat)
}

// BatchStat describes one charged batch of a seed search, as delivered to
// Options.OnBatch immediately after the batch evaluated.
type BatchStat struct {
	// Batch is the 1-based index of the batch within this search.
	Batch int
	// Seeds is the number of candidate seeds the batch charged: the model's
	// S machines evaluate all of them before one AllReduce, even when the
	// host stopped at an earlier qualifying one (see SearchAtLeast).
	Seeds int
	// SeedsTried is the cumulative charged candidate count including this
	// batch.
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
	SeedsTried int  // charged candidates: the model's count, not the host's
	Batches    int  // charged batches
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
	if o.BatchSize < 1 {
		panic("condexp: BatchSize < 1")
	}
	if o.MaxSeeds <= 0 {
		o.MaxSeeds = DefaultMaxSeeds
	}
}

// SearchAtLeast scans the family in its canonical enumeration order and
// returns the first seed whose objective is at least threshold. If no seed
// qualifies within MaxSeeds, the best seed seen is returned with
// Found == false (callers treat that as "take the progress you got", which
// keeps the outer algorithms unconditionally correct). Candidates are
// scored as the enumeration yields them, one at a time on the calling
// goroutine, and scoring stops at the first that qualifies; the rest of its
// batch is only counted. No candidate after it can change the result, so
// the Result, the OnBatch stream and the model's charges are those of
// scoring every batch whole. When Found is set, the last objective call
// scored Result.Seed, so state the objective left behind describes the
// winner. Done is polled before the first candidate of every batch, so a
// search whose last batch was scored is never Canceled, even when Done
// turns true after it.
func SearchAtLeast(fam hashfam.Family, obj Objective, threshold int64, opts Options) (Result, error) {
	opts.defaults()
	enum := fam.Enumerate()
	best := Result{Value: -1 << 62}
	for !best.Found && best.SeedsTried < opts.MaxSeeds {
		size := 0
		for size < opts.BatchSize && best.SeedsTried+size < opts.MaxSeeds && enum.Next() {
			// The cancellation checkpoint, at a batch boundary only, so a
			// completed search is bit-identical to an unobserved one.
			if size == 0 && opts.Done != nil && opts.Done() {
				best.Canceled = true
				return best, nil
			}
			size++
			if best.Found {
				continue // charged with the batch, never scored
			}
			seed := enum.Seed()
			v := obj(seed)
			if v > best.Value || v >= threshold {
				best.Value = v
				best.Seed = append(best.Seed[:0], seed...)
			}
			// First qualifying seed in enumeration order wins.
			best.Found = v >= threshold
		}
		if size == 0 {
			break // the family is exhausted
		}
		// The model charges every candidate of the batch (one AllReduce per
		// batch), whether or not the host scored it.
		best.SeedsTried += size
		best.Batches++
		if opts.Model != nil {
			opts.Model.ChargeSeedBatch(size, opts.Label)
		}
		if opts.OnBatch != nil {
			opts.OnBatch(BatchStat{
				Batch:      best.Batches,
				Seeds:      size,
				SeedsTried: best.SeedsTried,
				BestValue:  best.Value,
				Found:      best.Found,
			})
		}
	}
	if best.SeedsTried == 0 {
		return best, ErrEmptyFamily
	}
	return best, nil
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
