// Package simcost is the round- and space-accounting layer between the
// algorithms and the MPC model. The algorithms in internal/sparsify,
// internal/matching, internal/mis and internal/lowdeg execute on in-memory
// graphs (local computation is free in MPC), but every model-relevant
// operation — a Lemma 4 sort, a prefix-sum aggregation, a 2-hop
// neighbourhood collection, one batched seed evaluation — is charged here
// with the same round constants the message-level implementations in
// internal/mpc achieve, and every machine-space claim is asserted against
// S = ceil(n^ε).
//
// Every solve charges one Model of its input graph, so every seed search
// batches by the model's S. Labels name each charge at its call site and in
// the violation messages the model records.
package simcost

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mpc"
)

// Model tracks rounds and space for one algorithm execution on a graph with
// n nodes and m edges under per-machine space S = ceil(n^ε).
type Model struct {
	mu sync.Mutex

	n        int
	epsilon  float64
	s        int
	machines int

	rounds     int
	violations []string

	peakMachineWords int
	seedBatches      int
	seedsEvaluated   int64
}

// New returns a model for a graph with n nodes and m edges and space
// exponent epsilon, with per-machine space S = space(n, epsilon). The
// machine count is the paper's M = Θ((m + n^{1+ε}) / S).
func New(n, m int, epsilon float64) *Model {
	if epsilon <= 0 || epsilon > 1 {
		panic("simcost: epsilon must be in (0, 1]")
	}
	if n < 1 {
		n = 1
	}
	s := space(n, epsilon)
	total := int64(2*m) + int64(float64(n)*float64(s)) // input + n^{1+ε} slack
	machines := int(total/int64(s)) + 1
	return &Model{
		n:        n,
		epsilon:  epsilon,
		s:        s,
		machines: machines,
	}
}

// space returns the per-machine space S in words for a graph with n nodes
// at space exponent epsilon: ceil(n^ε), but never below minSpace (the
// paper's constants assume n^ε exceeds any fixed constant; at laptop scale
// a floor keeps groups non-degenerate).
func space(n int, epsilon float64) int {
	const minSpace = 16
	return max(minSpace, int(math.Ceil(math.Pow(float64(n), epsilon))))
}

// Budget returns the hard per-machine bound 8·S, S = space(n, epsilon),
// that AssertMachineWords enforces and that internal/lowdeg sizes its
// colour space and collected balls by. The paper's space claims are
// O(n^{8δ}) with δ = ε/8, i.e. S up to a constant factor; 8 is the
// constant all asserted structures (2-hop balls bounded by
// (2n^{4δ})² = 4n^ε, seed batches, …) respect in the analysis. It depends
// on (n, ε) alone, so lowdeg.Suitable can read it before a solve builds its
// model.
func Budget(n int, epsilon float64) int {
	return 8 * space(n, epsilon)
}

// S returns the per-machine space in words.
func (m *Model) S() int { return m.s }

// Stats is a snapshot of accumulated accounting.
type Stats struct {
	Rounds           int
	Violations       []string
	PeakMachineWords int
	SeedBatches      int
	SeedsEvaluated   int64 // charged candidates (see ChargeSeedBatch), scored by the host or not
	S                int
	Machines         int
}

// Stats returns a snapshot. It copies the violation list only when one was
// recorded, so a snapshot of a model without violations allocates nothing.
func (m *Model) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Rounds:           m.rounds,
		Violations:       append([]string(nil), m.violations...),
		PeakMachineWords: m.peakMachineWords,
		SeedBatches:      m.seedBatches,
		SeedsEvaluated:   m.seedsEvaluated,
		S:                m.s,
		Machines:         m.machines,
	}
}

func (m *Model) charge(rounds int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rounds += rounds
}

// ChargeRounds charges k generic rounds for the labelled step.
func (m *Model) ChargeRounds(k int, label string) { m.charge(k) }

// ChargeSort charges one Lemma 4 sort: 4 rounds, the constant the
// message-level sample sort in internal/mpc achieves.
func (m *Model) ChargeSort(label string) { m.charge(4) }

// scanDepth returns the aggregation-tree depth for payload k on this model.
func (m *Model) scanDepth(k int) int {
	f := m.s / (4 * k)
	if f > m.machines {
		f = m.machines
	}
	if f < 2 {
		f = 2
	}
	return mpc.TreeDepth(m.machines, f)
}

// ChargeScan charges one Lemma 4 prefix-sum/aggregation: 2*depth+1 rounds
// with an S/8-ary tree over M machines, matching mpc.PrefixSum.
func (m *Model) ChargeScan(label string) { m.charge(2*m.scanDepth(2) + 1) }

// ChargeSeedBatch charges one batched seed evaluation round-trip: every
// machine evaluates its local objective for each of batch candidate seeds
// and one AllReduce of the batch-length vector selects the winner
// (2*depth + 1 rounds). The batch must fit one machine: batch <= S.
func (m *Model) ChargeSeedBatch(batch int, label string) {
	if batch > m.s {
		m.recordViolation(fmt.Sprintf("seed batch %d > S=%d [%s]", batch, m.s, label))
	}
	m.mu.Lock()
	m.seedBatches++
	m.seedsEvaluated += int64(batch)
	m.mu.Unlock()
	m.charge(2*m.scanDepth(batch) + 1)
}

// MachineBudget returns Budget for the model's graph.
func (m *Model) MachineBudget() int { return Budget(m.n, m.epsilon) }

// AssertMachineWords asserts that a single machine is asked to hold `words`
// words (e.g. a collected 2-hop neighbourhood); a violation is recorded if
// it exceeds MachineBudget. Returns true when the assertion holds.
func (m *Model) AssertMachineWords(words int, label string) bool {
	m.mu.Lock()
	if words > m.peakMachineWords {
		m.peakMachineWords = words
	}
	m.mu.Unlock()
	if budget := m.MachineBudget(); words > budget {
		m.recordViolation(fmt.Sprintf("machine holds %d words > budget 8S=%d [%s]", words, budget, label))
		return false
	}
	return true
}

func (m *Model) recordViolation(v string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.violations = append(m.violations, v)
}

// Violations returns the recorded violations.
func (m *Model) Violations() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.violations...)
}
