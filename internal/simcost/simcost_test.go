package simcost

import (
	"strings"
	"sync"
	"testing"
)

func TestSpaceComputation(t *testing.T) {
	m := New(1<<16, 1<<18, 0.5)
	if m.S() != 256 {
		t.Errorf("S = %d, want 256 = (2^16)^0.5", m.S())
	}
	if m.Machines() < 1<<10 {
		t.Errorf("machines = %d, too few for n=2^16", m.Machines())
	}
	small := New(4, 4, 0.5)
	if small.S() < 16 {
		t.Errorf("S floor not applied: %d", small.S())
	}
}

func TestNewValidation(t *testing.T) {
	for _, eps := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with eps=%f did not panic", eps)
				}
			}()
			New(10, 10, eps)
		}()
	}
}

func TestChargeAccumulates(t *testing.T) {
	m := New(1024, 4096, 0.5)
	m.ChargeSort("degrees")
	m.ChargeSort("degrees")
	if got := m.Rounds(); got != 8 {
		t.Errorf("two sorts charged %d rounds, want 8", got)
	}
	m.ChargeScan("sums")
	scan := m.Rounds() - 8
	if scan < 3 {
		t.Errorf("scan charged %d rounds, want at least 3 (2·depth+1)", scan)
	}
	m.ChargeRounds(1, "collect")
	if s := m.Stats(); s.Rounds != 8+scan+1 {
		t.Errorf("total rounds inconsistent: %+v", s)
	}
}

func TestScanRoundsConstantForLargeS(t *testing.T) {
	// Lemma 4 claim: scan rounds are O(1/ε), i.e. they do not GROW with n
	// (the tree gets wider as fast as it gets taller). Small n pays larger
	// constants because S is tiny there.
	var counts []int
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		m := New(n, 8*n, 0.5)
		m.ChargeScan("s")
		counts = append(counts, m.Rounds())
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("scan rounds grow with n: %v", counts)
		}
	}
	if counts[len(counts)-1] > 13 {
		t.Errorf("scan rounds too large at big n: %v", counts)
	}
}

func TestSeedBatchAccounting(t *testing.T) {
	m := New(1<<12, 1<<14, 0.5)
	m.ChargeSeedBatch(32, "luby")
	m.ChargeSeedBatch(32, "luby")
	s := m.Stats()
	if s.SeedBatches != 2 || s.SeedsEvaluated != 64 {
		t.Errorf("seed accounting wrong: %+v", s)
	}
	if len(s.Violations) != 0 {
		t.Errorf("unexpected violations: %v", s.Violations)
	}
}

func TestSeedBatchTooLargeIsViolation(t *testing.T) {
	m := New(256, 1024, 0.5) // S = 16 (floor)
	m.ChargeSeedBatch(10_000, "luby")
	if len(m.Violations()) == 0 {
		t.Error("oversized batch not flagged")
	}
}

// TestBudgetMatchesModel pins Budget, which lowdeg.Suitable reads before a
// solve builds its model, to 8·S of a model of the same graph, the floor S >= 16 included.
func TestBudgetMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		eps  float64
		want int
	}{{0, 0.5, 128}, {64, 0.5, 128}, {100, 0.5, 128}, {4096, 0.25, 128}, {4096, 0.5, 512}, {1 << 16, 0.5, 2048}} {
		m := New(tc.n, 0, tc.eps)
		if got := Budget(tc.n, tc.eps); got != tc.want || m.MachineBudget() != got || 8*m.S() != got {
			t.Errorf("n=%d ε=%v: Budget = %d, model budget %d and 8·S = %d, want %d",
				tc.n, tc.eps, got, m.MachineBudget(), 8*m.S(), tc.want)
		}
	}
}

func TestAssertMachineWords(t *testing.T) {
	m := New(1<<16, 1<<18, 0.5) // S = 256, budget 8S = 2048
	if m.MachineBudget() != 2048 {
		t.Fatalf("budget = %d, want 2048", m.MachineBudget())
	}
	if !m.AssertMachineWords(2000, "ball") {
		t.Error("within-budget assertion failed")
	}
	if m.AssertMachineWords(3000, "ball") {
		t.Error("over-budget assertion passed")
	}
	s := m.Stats()
	if s.PeakMachineWords != 3000 {
		t.Errorf("peak = %d", s.PeakMachineWords)
	}
	if len(s.Violations) != 1 || !strings.Contains(s.Violations[0], "ball") {
		t.Errorf("violations = %v", s.Violations)
	}
}

func TestConcurrentCharging(t *testing.T) {
	m := New(1<<12, 1<<14, 0.5)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.ChargeRounds(1, "par")
				m.AssertMachineWords(j, "par")
			}
		}()
	}
	wg.Wait()
	if m.Rounds() != 3200 {
		t.Errorf("rounds = %d, want 3200", m.Rounds())
	}
}

// Machines returns the simulated machine count.
func (m *Model) Machines() int { return m.machines }

// Rounds returns the total charged rounds so far.
func (m *Model) Rounds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rounds
}
