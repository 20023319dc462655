package sparsify

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// stageItems is one subsampling stage in the shape its seed search scores.
// The stage's items — the edges of E_{j-1} or the nodes of Q_{j-1} — are
// hashed once per candidate seed into a z row (keys[t] is item t's key),
// and every logical machine is a γ-chunk of a run of item indices into
// that row. The runs lie back to back in idx, and run r ends at ends[r]
// (it starts where run r-1 ends, run 0 at 0).
//
// A run carries up to two sets of groups over the same chunks:
//   - count groups (every edge-stage run, and node-stage runs of v ∈ Q_{j-1}):
//     the statistic is the number of sub-threshold items, accepted when it
//     lies in [lo[ex], hi[ex]] for the chunk's size ex;
//   - weighted groups (node-stage runs of v ∈ B): the statistic is the sum
//     of the sub-threshold items' weights w, accepted when it reaches the
//     group's own bound wLo[g], where g numbers the weighted groups in run
//     order (their upper bound is +Inf).
//
// count == nil marks every run as a count run and weighted == nil none as
// weighted. The windows are precomputed once per stage: every bound
// depends only on the group's fixed size and, for weighted groups, its
// fixed total weight, never on the seed.
type stageItems struct {
	ev       *hashfam.Evaluator
	th       uint64
	gamma    int
	keys     []uint64
	idx      []int32
	ends     []int32
	count    []bool
	weighted []bool
	lo, hi   []float64 // count window by chunk size, indexed 1..γ
	w        []float64 // per-item weight of the weighted groups
	wLo      []float64 // per weighted group, in run order
	groups   int       // count groups + weighted groups

	// kept is the z row of the search's result when the search kept it
	// (see search), keptSeed the seed it was hashed under, and claimed
	// marks the slot taken.
	kept     []uint64
	keptSeed []uint64
	claimed  atomic.Bool
}

// good returns the number of groups that pass under the values z of the
// stage's items (z[t] = h(keys[t])). It reads every chunk left to right,
// so each weighted sum adds its items in run order. Whether an item clears
// the threshold is data-random, so both accumulations are branchless: the
// count adds the unsigned-compare borrow bit and the weighted sum
// multiplies the weight by it (w·1 = w and s + w·0 = s exactly — the
// weights are finite and the sum starts at +0 — so the float result is
// bit-identical to the branchy form).
func (s *stageItems) good(z []uint64) int64 {
	var good int64
	th, gamma := s.th, int32(s.gamma)
	start, wg := int32(0), 0
	for r, end := range s.ends {
		countRun := s.count == nil || s.count[r]
		weightRun := s.weighted != nil && s.weighted[r]
		for lo := start; lo < end; lo += gamma {
			chunk := s.idx[lo:min(lo+gamma, end)]
			if countRun {
				c := 0
				for _, t := range chunk {
					_, below := bits.Sub64(z[t], th, 0)
					c += int(below)
				}
				if v := float64(c); v >= s.lo[len(chunk)] && v <= s.hi[len(chunk)] {
					good++
				}
			}
			if weightRun {
				var sum float64
				for _, t := range chunk {
					_, below := bits.Sub64(z[t], th, 0)
					sum += s.w[t] * float64(below)
				}
				if sum >= s.wLo[wg] {
					good++
				}
				wg++
			}
		}
		start = end
	}
	return good
}

// search is the seed search of one stage, edge and node stages alike: the
// first seed of the stage's family, in enumeration order, under which every
// group is good, or the best seed seen within Params.MaxSeedsPerSearch. A
// candidate hashes each item once (Evaluator.EvalKeys) into a row checked
// out of rows, so concurrent candidates never share one, and is scored by
// good. The result's Value is the good-group count of its Seed.
//
// The first candidate to make every group good keeps its row out of rows,
// and the stage's apply step reads it (row) when that candidate is the
// result, so the winner's items are not hashed a second time. This depends
// on condexp.SearchAtLeast scoring probe-first: a batch's first candidate
// is scored alone, on the calling goroutine, before any other candidate
// of its batch, so when it wins it is the only all-good candidate scored
// and its row is the one kept. After a missed probe the fanned-out
// candidates race for the slot and the row kept may be a later seed's;
// settle then hands it back, and row hashes the winner's items again.
// Every path returns the kept row to rows: settle when it is not the
// result's (cancellation included), else release after the apply step.
func (s *stageItems) search(rows *scratch.Rows, p core.Params, model *simcost.Model) condexp.Result {
	objective := func(seed []uint64) int64 {
		z := rows.Get(len(s.keys))
		good := s.good(s.ev.EvalKeys(seed, s.keys, z))
		if good >= int64(s.groups) && s.claimed.CompareAndSwap(false, true) {
			s.kept = z
			s.keptSeed = append(s.keptSeed[:0], seed...)
		} else {
			rows.Put(z)
		}
		return good
	}
	res, _ := p.SeedSearch(s.ev.Family(), objective, int64(s.groups), "sparsify.seed", model)
	s.settle(rows, res)
	return res
}

// settle hands the kept row back to rows unless it is the row of
// res.Seed; a canceled search applies no seed, so its row goes back too.
func (s *stageItems) settle(rows *scratch.Rows, res condexp.Result) {
	if s.kept != nil && (res.Canceled || !slices.Equal(s.keptSeed, res.Seed)) {
		s.release(rows)
	}
}

// row returns the z row of seed, the search's result: the row the search
// kept when it is seed's, else one EvalKeysW pass into a buffer from sc.
// EvalKeysW shards the loop of EvalKeys, so both give the same values.
func (s *stageItems) row(sc *scratch.Context, seed []uint64, workers int) []uint64 {
	if s.kept != nil {
		return s.kept
	}
	return s.ev.EvalKeysW(seed, s.keys, sc.Uint64s(len(s.keys)), workers)
}

// release hands the kept row, if any, back to rows.
func (s *stageItems) release(rows *scratch.Rows) {
	if s.kept != nil {
		rows.Put(s.kept)
		s.kept = nil
	}
}

// chunks returns the number of γ-chunks of a run of length l.
func chunks(l, gamma int) int { return (l + gamma - 1) / gamma }

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
