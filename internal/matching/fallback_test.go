package matching

import (
	"testing"

	"repro/internal/check"
	"repro/internal/graph/gen"
)

// Robustness tests: the algorithm must stay unconditionally correct when
// its performance knobs are hostile — thresholds that cannot be met within
// the scan budget, and single-seed budgets that force best-effort picks.

func TestUnreachableThresholdStillMaximal(t *testing.T) {
	g := gen.GNM(400, 1600, 3)
	p := params()
	p.ThresholdFrac = 1.0   // demand the full Lemma 13 bound...
	p.MaxSeedsPerSearch = 2 // ...with almost no budget to find it
	res := Deterministic(g, p, costModel(g, p))
	if ok, reason := check.IsMaximalMatching(g, res.Matching); !ok {
		t.Fatal(reason)
	}
	// Iterations may grow, but termination and maximality are unconditional.
	if len(res.Rounds) > g.M() {
		t.Errorf("pathological iteration count %d", len(res.Rounds))
	}
}

func TestSingleSeedBudget(t *testing.T) {
	g := gen.PowerLaw(300, 1200, 2.5, 5)
	p := params()
	p.MaxSeedsPerSearch = 1 // always take the first enumerated seed
	res := Deterministic(g, p, costModel(g, p))
	if ok, reason := check.IsMaximalMatching(g, res.Matching); !ok {
		t.Fatal(reason)
	}
	for i, it := range res.Rounds {
		if it.SeedsTried > 1 {
			t.Errorf("iteration %d tried %d seeds over budget", i+1, it.SeedsTried)
		}
	}
}

func TestTinySlackForcesBestEffortStages(t *testing.T) {
	// Slack 0.1 makes the per-stage goodness nearly unsatisfiable; stages
	// fall back to the best seed scanned but the pipeline must still emit a
	// valid maximal matching.
	g := gen.GNM(512, 512*24, 7)
	p := params()
	p.Slack = 0.1
	p.MaxSeedsPerSearch = 64
	res := Deterministic(g, p, costModel(g, p))
	if ok, reason := check.IsMaximalMatching(g, res.Matching); !ok {
		t.Fatal(reason)
	}
}

func TestExtremeThresholdObjectiveValuesRecorded(t *testing.T) {
	g := gen.GNM(300, 2400, 9)
	res := Deterministic(g, params(), costModel(g, params()))
	for i, it := range res.Rounds {
		if it.Threshold < 1 {
			t.Errorf("iteration %d threshold %d < 1", i+1, it.Threshold)
		}
		if it.SeedFound && it.Objective < it.Threshold {
			t.Errorf("iteration %d claims success with value %d < threshold %d",
				i+1, it.Objective, it.Threshold)
		}
	}
}
