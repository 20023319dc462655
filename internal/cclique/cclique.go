// Package cclique implements the CONGESTED CLIQUE side of the paper
// (Section 1.1.2, Corollary 2): n fully connected nodes, each round every
// ordered pair may exchange one O(log n)-bit message, and any pattern in
// which every node sends and receives at most n messages can be delivered
// in O(1) rounds by Lenzen's routing scheme [41].
//
// Corollary 2 states that the paper's deterministic MIS and maximal
// matching run in O(log Δ) CONGESTED CLIQUE rounds. This package provides:
//
//   - Model: a round/capacity accountant for the CC model with a Lenzen
//     routing primitive that validates the ≤ n send/receive constraint;
//   - DetMIS / DetMatching: the Section 5 stage-compressed algorithms
//     executed via internal/lowdeg with CC round accounting (ball sizes are
//     checked against the n-word Lenzen budget rather than MPC's n^ε);
//   - CH15Rounds: the round accounting of the prior state of the art
//     (Censor-Hillel et al. [15], O(log Δ·log n)): the per-phase
//     derandomization spends O(log n) voting rounds fixing an O(log n)-bit
//     seed O(1) bits at a time. Reproducing [15]'s Ghaffari-derandomization
//     in full is out of scope (substitution 5 of the repro package
//     documentation); the baseline
//     charges its documented round structure against the same executed
//     phase counts, preserving the comparison's shape.
package cclique

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lowdeg"
	"repro/internal/scratch"
	"repro/internal/simcost"
)

// Model accounts rounds and message-capacity constraints in the CONGESTED
// CLIQUE on n nodes.
type Model struct {
	N          int
	rounds     int
	violations []string
}

// NewModel returns a CC accountant for n nodes.
func NewModel(n int) *Model {
	return &Model{N: n}
}

// ChargeRounds charges k rounds for the labelled step.
func (m *Model) ChargeRounds(k int, label string) {
	if m == nil {
		return
	}
	m.rounds += k
}

// Lenzen charges one routing phase (2 rounds) after validating that no node
// sends or receives more than n words — the precondition of Lenzen's
// constant-round routing.
func (m *Model) Lenzen(maxSend, maxRecv int, label string) {
	if m == nil {
		return
	}
	if maxSend > m.N || maxRecv > m.N {
		m.violations = append(m.violations,
			fmt.Sprintf("lenzen overload: send %d / recv %d > n=%d [%s]", maxSend, maxRecv, m.N, label))
	}
	m.ChargeRounds(2, label)
}

// Rounds returns total charged rounds.
func (m *Model) Rounds() int {
	if m == nil {
		return 0
	}
	return m.rounds
}

// Violations returns the recorded capacity violations.
func (m *Model) Violations() []string {
	if m == nil {
		return nil
	}
	return append([]string(nil), m.violations...)
}

// MISResult is the outcome of the deterministic CC MIS.
type MISResult struct {
	IndependentSet []graph.NodeID
	Stages         int
	Phases         int
	Ell            int
	// RoundsDet is the Corollary 2 accounting: O(log* n) colouring +
	// O(log log n)-round ball collection + O(1) rounds per stage.
	RoundsDet int
	// RoundsCH15 is the prior-art baseline accounting ([15]):
	// O(log n) voting rounds per executed Luby phase.
	RoundsCH15 int
	Model      *Model
}

// DetMIS runs the deterministic MIS in the CONGESTED CLIQUE model.
func DetMIS(g *graph.Graph, p core.Params) *MISResult {
	out := account(lowdeg.MIS(g, p, simcost.New(g.N(), g.M(), p.Epsilon)), g.N())
	if ok, reason := check.IsMaximalIS(g, out.IndependentSet); !ok {
		panic("cclique: invalid MIS: " + reason)
	}
	return out
}

// account charges the Corollary 2 accounting of a Section 5 MIS run on an
// n-node graph to a fresh CC model.
func account(res *lowdeg.Result, n int) *MISResult {
	m := NewModel(n)
	// Preprocessing: Linial colouring (1 round per iteration: colours fit
	// single messages) and ball collection by doubling; each doubling step
	// is one Lenzen phase and ball sizes must stay within the n-word budget.
	m.ChargeRounds(res.ColoringRounds+1, "cc.coloring")
	doublings := int(math.Ceil(math.Log2(float64(res.Radius)))) + 1
	m.Lenzen(res.MaxBallWords, res.MaxBallWords, "cc.collect")
	m.ChargeRounds(2*(doublings-1), "cc.collect")
	if res.MaxBallWords > n {
		// Balls exceeding n words break the Lenzen budget; record it (the
		// Δ = O(n^{1/3}) regime of Corollary 2 guarantees this fits).
		m.violations = append(m.violations,
			fmt.Sprintf("ball %d words > n=%d", res.MaxBallWords, n))
	}
	// Stages: the seed-sequence election is local (clique-wide local
	// computation is free); one aggregation announces winners: O(1)/stage.
	m.ChargeRounds(3*res.Stages, "cc.stages")

	return &MISResult{
		IndependentSet: res.IndependentSet,
		Stages:         res.Stages,
		Phases:         len(res.Rounds),
		Ell:            res.Ell,
		RoundsDet:      m.Rounds(),
		RoundsCH15:     CH15Rounds(n, len(res.Rounds)),
		Model:          m,
	}
}

// MatchingResult is the outcome of the deterministic CC maximal matching.
type MatchingResult struct {
	Matching   []graph.Edge
	MIS        *MISResult
	RoundsDet  int
	RoundsCH15 int
}

// DetMatching runs the deterministic maximal matching in the CONGESTED
// CLIQUE by simulating MIS on the line graph (Corollary 2; feasible for
// Δ = O(n^{1/3}) since 2-hop line-graph neighbourhoods fit the routing
// budget). It is the Section 5 matching (lowdeg.MaximalMatchingIn, charged
// to a model of g), with DetMIS's accounting applied to its line-graph MIS
// over the line graph's m nodes.
func DetMatching(g *graph.Graph, p core.Params) *MatchingResult {
	res := lowdeg.MaximalMatchingIn(scratch.New(), g, p, simcost.New(g.N(), g.M(), p.Epsilon))
	misRes := account(res.MIS, g.M())
	out := &MatchingResult{
		Matching:   res.Matching,
		MIS:        misRes,
		RoundsDet:  misRes.RoundsDet,
		RoundsCH15: misRes.RoundsCH15,
	}
	if ok, reason := check.IsMaximalMatching(g, out.Matching); !ok {
		panic("cclique: invalid matching: " + reason)
	}
	return out
}

// CH15Rounds returns the baseline accounting of Censor-Hillel et al. [15]
// for `phases` derandomized steps on an n-node clique: each phase fixes an
// O(log n)-bit seed via bit-by-bit voting, O(1) rounds per bit — i.e.
// ceil(log2 n) + 1 rounds per phase, O(log Δ · log n) in total.
func CH15Rounds(n, phases int) int {
	if n < 2 {
		n = 2
	}
	perPhase := int(math.Ceil(math.Log2(float64(n)))) + 1
	return phases * perPhase
}
