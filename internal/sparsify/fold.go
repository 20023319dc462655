package sparsify

import (
	"math/bits"

	"repro/internal/condexp"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/simcost"
)

// stageItems is one subsampling stage in the shape its seed search scores.
// The stage's items — the edges of E_{j-1} or the nodes of Q_{j-1} — are
// hashed once per candidate seed into the stage's z row (keys[t] is item
// t's key, z[t] its value), and every logical machine is a γ-chunk of a
// run of item indices into that row. The runs lie back to back in idx,
// and run r ends at ends[r] (it starts where run r-1 ends, run 0 at 0).
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
	z        []uint64
	idx      []int32
	ends     []int32
	count    []bool
	weighted []bool
	lo, hi   []float64 // count window by chunk size, indexed 1..γ
	w        []float64 // per-item weight of the weighted groups
	wLo      []float64 // per weighted group, in run order
	groups   int       // count groups + weighted groups
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
// candidate hashes each item once (Evaluator.EvalKeys) into the stage's
// row z and is scored by good. The result's Value is the good-group count
// of its Seed.
func (s *stageItems) search(p core.Params, model *simcost.Model) condexp.Result {
	objective := func(seed []uint64) int64 {
		return s.good(s.ev.EvalKeys(seed, s.keys, s.z))
	}
	return p.SeedSearch(s.ev.Family(), objective, int64(s.groups), "sparsify.seed", model, nil)
}

// runStage runs stage j of either chain on its laid-out items: the seed
// search, the apply and the stage report. cur lists the stage's items — the
// edges of E_{j-1} or the nodes of Q_{j-1} — in item order, and dst is a
// buffer of capacity len(cur)+1 for the survivors. It returns the stage's
// set E_j or Q_j, in cur's order, or canceled when Params.Done stopped the
// search: res.Seed may then be nil, so nothing is applied and the caller
// abandons the chain.
func runStage[T any](items *stageItems, cur, dst []T, p core.Params, j int, model *simcost.Model) (next []T, report StageReport, canceled bool) {
	model.ChargeSort("sparsify.distribute") // spread incident items over machines
	res := items.search(p, model)
	if res.Canceled {
		return nil, StageReport{}, true
	}
	next = keep(dst, cur, items.row(res, p.Workers()), items.th)
	model.ChargeScan("sparsify.apply")
	return next, StageReport{
		Stage:       j,
		ItemsBefore: len(cur),
		ItemsAfter:  len(next),
		Groups:      items.groups,
		GoodGroups:  int(res.Value),
		SeedsTried:  res.SeedsTried,
		SeedFound:   res.Found,
	}, false
}

// row returns the z row of res.Seed, the search's result. When res.Found,
// the search's last candidate was res.Seed (condexp.SearchAtLeast), so z
// holds its values already; otherwise one EvalKeysW pass hashes the
// best-effort seed's items into z again. EvalKeysW shards the loop of
// EvalKeys, so both give the same values.
func (s *stageItems) row(res condexp.Result, workers int) []uint64 {
	if res.Found {
		return s.z
	}
	return s.ev.EvalKeysW(res.Seed, s.keys, s.z, workers)
}

// keep returns the items cur[t] with z[t] < th, in order, written into dst
// (capacity at least len(cur)+1) by a branch-free serial filter: each item
// is written to the next free slot and kept by advancing past it, so the
// last write may land in the spare slot.
func keep[T any](dst, cur []T, z []uint64, th uint64) []T {
	dst = dst[:len(cur)+1]
	size := 0
	for t, x := range cur {
		dst[size] = x
		size += int(b2i(z[t] < th))
	}
	return dst[:size]
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
