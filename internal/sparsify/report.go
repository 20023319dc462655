// Package sparsify implements the paper's central contribution: the
// deterministic graph sparsification of Sections 3.2 (edges, for maximal
// matching) and 4.2 (nodes, for MIS).
//
// Both variants follow the same scheme. Fix the degree class C_i whose good
// nodes B are incident to a δ/2 fraction of the edges (Corollaries 8/16);
// then, for i >= 5, run i-4 stages, each derandomizing the subsampling of
// edges (resp. nodes) with probability n^{-δ}: incident items are spread
// over logical "machines" (groups of γ = ceil(n^{4δ}) items), a machine is
// good for a hash function h when the sampled count concentrates as Lemma 9
// predicts, and the method of conditional expectations (internal/condexp)
// finds a seed making all machines good in O(1) charged MPC rounds. The
// invariants of Lemmas 10/11 (resp. 17/18) then hold and the final
// subsampled object E* (resp. Q') has maximum degree O(n^{4δ}), so 2-hop
// neighbourhoods fit in a machine of S = O(n^{8δ}) = O(n^ε) words.
//
// Both chains carry their items as lists from start to end — E_j as its
// canonical edge list, Q_j as its ascending id list. A stage lays out its
// runs off the list, and one stage step serves both chains (runStage:
// search, keep the items whose hash falls below the threshold, report). A
// call builds one CSR, after the chain: E*, or the graph induced on Q'.
//
// SparsifyEdges and SparsifyNodes audit those invariants after every stage
// (StageReport.InvariantI/InvariantII), for the experiments and tests. The
// In entry points, which the solvers call, skip the audits and are
// otherwise bit-identical to them.
package sparsify

import "fmt"

// InvariantCheck summarises one invariant over all checked nodes of a stage:
// how many nodes were checked, how many violated the slack-adjusted bound,
// and the worst measured/bound ratio (ratios <= 1 satisfy the bound; for
// lower-bound invariants the ratio is bound/measured so the same reading
// applies).
type InvariantCheck struct {
	Name       string
	Checked    int
	Violated   int
	WorstRatio float64
}

func (c InvariantCheck) String() string {
	return fmt.Sprintf("%s: %d/%d violated (worst ratio %.3f)", c.Name, c.Violated, c.Checked, c.WorstRatio)
}

// StageReport records one derandomized subsampling stage.
type StageReport struct {
	Stage       int // 1-based stage index j
	ItemsBefore int // |E_{j-1}| or |Q_{j-1}|
	ItemsAfter  int // |E_j| or |Q_j|
	Groups      int // logical machines (type A/Q + type B)
	GoodGroups  int // groups good under the selected seed
	// SeedsTried counts the model's charged candidates, not the host's
	// (condexp.Result.SeedsTried).
	SeedsTried  int
	SeedFound   bool // all-groups-good threshold met
	InvariantI  InvariantCheck
	InvariantII InvariantCheck
}

// observe folds a measured/bound comparison into an InvariantCheck; ratio
// is measured relative to the allowed bound (<= 1 passes).
func (c *InvariantCheck) observe(ratio float64) {
	c.Checked++
	if ratio > 1 {
		c.Violated++
	}
	if ratio > c.WorstRatio {
		c.WorstRatio = ratio
	}
}
