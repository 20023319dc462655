package cclique

import (
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph/gen"
)

func params() core.Params { return core.DefaultParams() }

func TestModelAccounting(t *testing.T) {
	m := NewModel(100)
	m.ChargeRounds(3, "a")
	if m.Rounds() != 3 {
		t.Errorf("rounds = %d, want 3", m.Rounds())
	}
	m.Lenzen(50, 80, "route")
	if m.Rounds() != 5 {
		t.Errorf("rounds after one routing phase = %d, want 5", m.Rounds())
	}
	if len(m.Violations()) != 0 {
		t.Errorf("violations = %v", m.Violations())
	}
	m.Lenzen(200, 10, "overload")
	if len(m.Violations()) != 1 {
		t.Error("overload not recorded")
	}
}

func TestNilModelSafe(t *testing.T) {
	var m *Model
	m.ChargeRounds(1, "x")
	m.Lenzen(1, 1, "x")
	if m.Rounds() != 0 || m.Violations() != nil {
		t.Error("nil model must be inert")
	}
}

func TestDetMISLowDegree(t *testing.T) {
	g := gen.RandomRegular(512, 6, 3)
	res := DetMIS(g, params())
	if ok, reason := check.IsMaximalIS(g, res.IndependentSet); !ok {
		t.Fatal(reason)
	}
	if res.RoundsDet <= 0 {
		t.Error("no deterministic rounds charged")
	}
	if len(res.Model.Violations()) != 0 {
		t.Errorf("capacity violations: %v", res.Model.Violations())
	}
}

func TestDetMISBeatsCH15Accounting(t *testing.T) {
	// Corollary 2 vs [15]: O(log Δ) vs O(log Δ·log n) — the deterministic
	// rounds must undercut the baseline on every low-degree workload, with
	// the gap growing in n.
	gaps := make([]float64, 0, 2)
	for _, n := range []int{512, 4096} {
		g := gen.RandomRegular(n, 4, uint64(n))
		res := DetMIS(g, params())
		if res.RoundsDet >= res.RoundsCH15 {
			t.Errorf("n=%d: det %d rounds >= CH15 %d", n, res.RoundsDet, res.RoundsCH15)
		}
		gaps = append(gaps, float64(res.RoundsCH15)/float64(res.RoundsDet))
	}
	if gaps[1] <= gaps[0]*0.8 {
		t.Errorf("gap did not grow with n: %v", gaps)
	}
}

func TestDetMISRoundsScaleWithLogDelta(t *testing.T) {
	n := 1024
	prev := 0
	for _, d := range []int{4, 16} {
		g := gen.RandomRegular(n, d, uint64(d))
		res := DetMIS(g, params())
		if res.RoundsDet > 60*int(math.Log2(float64(d)))+60 {
			t.Errorf("Δ=%d: %d rounds too many", d, res.RoundsDet)
		}
		if res.RoundsDet < prev/4 {
			t.Errorf("rounds collapsed unexpectedly: Δ=%d %d after %d", d, res.RoundsDet, prev)
		}
		prev = res.RoundsDet
	}
}

func TestDetMatching(t *testing.T) {
	g := gen.Grid2D(20, 20)
	res := DetMatching(g, params())
	if ok, reason := check.IsMaximalMatching(g, res.Matching); !ok {
		t.Fatal(reason)
	}
	if res.RoundsDet >= res.RoundsCH15 {
		t.Errorf("det %d >= CH15 %d", res.RoundsDet, res.RoundsCH15)
	}
}

func TestCH15Rounds(t *testing.T) {
	if CH15Rounds(1024, 10) != 10*11 {
		t.Errorf("CH15Rounds(1024,10) = %d, want 110", CH15Rounds(1024, 10))
	}
	if CH15Rounds(1, 5) != 5*2 {
		t.Errorf("degenerate n mishandled: %d", CH15Rounds(1, 5))
	}
}

func TestDetMISDeterministic(t *testing.T) {
	g := gen.RandomRegular(256, 4, 9)
	a, b := DetMIS(g, params()), DetMIS(g, params())
	if len(a.IndependentSet) != len(b.IndependentSet) || a.RoundsDet != b.RoundsDet {
		t.Fatal("nondeterministic CC MIS")
	}
}
