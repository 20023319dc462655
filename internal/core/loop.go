package core

import (
	"runtime"

	"repro/internal/condexp"
	"repro/internal/hashfam"
	"repro/internal/simcost"
)

// Round records one round of a round loop (one Luby phase on the Section 5
// path): the edge counts at its start and end, the sparsification stages it
// ran, its seed search — threshold (at least 1), charged candidates, whether
// a seed reached the threshold, and that seed's objective value — and the
// edges (matching) or nodes (MIS) it selected. The randomized baselines run
// no search and fill only the edge counts and Selected.
type Round struct {
	EdgesBefore, EdgesAfter int
	Stages                  int
	Threshold               int64
	SeedsTried              int
	SeedFound               bool
	Objective               int64
	Selected                int
}

// RemovedFraction is the share of the round-start edges the round removed,
// 0 for a round that started with none.
func (r Round) RemovedFraction() float64 {
	if r.EdgesBefore == 0 {
		return 0
	}
	return float64(r.EdgesBefore-r.EdgesAfter) / float64(r.EdgesBefore)
}

// Loop is the bookkeeping the matching (§3.3), MIS (§4.3) and Section 5
// loops share around their own round work: it polls cancellation, runs
// each round's seed search, and records each round and emits its
// RoundEvent. Canceled latches once Params.Done has stopped the solve,
// whose output is then partial. Start from NewLoop.
type Loop struct {
	Rounds   []Round
	Canceled bool

	p                   Params
	model               *simcost.Model
	algorithm, strategy string
	batches             []SeedBatchStat // the current round's, observed solves only
}

// NewLoop returns the driver of one solve under p, whose searches charge
// model and whose events carry algorithm and strategy.
func NewLoop(p Params, model *simcost.Model, algorithm, strategy string) Loop {
	return Loop{p: p, model: model, algorithm: algorithm, strategy: strategy}
}

// Stop polls Params.Done and reports whether the solve has been abandoned.
// The loops call it at round boundaries and after work that stops early on
// Done (a sparsification chain, the Section 5 preprocessing), whose partial
// result must then go unused.
func (l *Loop) Stop() bool {
	l.Canceled = l.Canceled || l.p.Canceled()
	return l.Canceled
}

// Search runs the round's seed search (Params.SeedSearch) against threshold,
// clamped to at least 1, fills r's search fields and returns the seed to
// apply. It returns nil once Done stopped the search, which may have scored
// no seed: the round is then abandoned whole.
func (l *Loop) Search(r *Round, fam hashfam.Family, obj condexp.Objective, threshold int64, label string) []uint64 {
	r.Threshold = max(threshold, 1)
	var stats *[]SeedBatchStat
	if l.p.Observe != nil {
		stats = new([]SeedBatchStat)
	}
	res := l.p.SeedSearch(fam, obj, r.Threshold, label, l.model, stats)
	if res.Canceled {
		l.Canceled = true
		return nil
	}
	r.SeedsTried, r.SeedFound, r.Objective = res.SeedsTried, res.Found, res.Value
	if stats != nil {
		l.batches = *stats
	}
	return res.Seed
}

// End appends r to Rounds and, on observed solves, emits its RoundEvent,
// numbered len(Rounds), with liveNodes, the search's batches and the
// model's running totals. It first yields the processor (runtime.Gosched):
// internal/parallel runs small calls on the solve's goroutine, so a solve
// may never park, and without a yield per round it would hold its
// processor until it ends, keeping a server's other goroutines (admission,
// queue accounting, other requests) off it.
func (l *Loop) End(r Round, liveNodes int) {
	runtime.Gosched()
	l.Rounds = append(l.Rounds, r)
	if l.p.Observe == nil {
		return
	}
	cs := l.model.Stats()
	l.p.Observe(RoundEvent{
		Algorithm:            l.algorithm,
		Strategy:             l.strategy,
		Round:                len(l.Rounds),
		LiveNodes:            liveNodes,
		LiveEdges:            r.EdgesBefore,
		SeedsTried:           r.SeedsTried,
		SeedFound:            r.SeedFound,
		Selected:             r.Selected,
		Batches:              l.batches,
		CostRounds:           cs.Rounds,
		CostSeedBatches:      cs.SeedBatches,
		CostPeakMachineWords: cs.PeakMachineWords,
	})
	l.batches = nil
}
