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
// All methods are safe on a nil *Model, so algorithm code can be run without
// accounting (e.g. in micro-benchmarks) at zero cost.
package simcost

import (
	"fmt"
	"math"
	"sort"
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
	byLabel    map[string]int
	violations []string

	peakMachineWords int
	peakTotalWords   int64
	seedBatches      int
	seedsEvaluated   int64
}

// New returns a model for a graph with n nodes and m edges and space
// exponent epsilon. S is ceil(n^ε) but never below minSpace (the paper's
// constants assume n^ε exceeds any fixed constant; at laptop scale a floor
// keeps groups non-degenerate). The machine count is the paper's
// M = Θ((m + n^{1+ε}) / S).
func New(n, m int, epsilon float64) *Model {
	if epsilon <= 0 || epsilon > 1 {
		panic("simcost: epsilon must be in (0, 1]")
	}
	if n < 1 {
		n = 1
	}
	const minSpace = 16
	s := int(math.Ceil(math.Pow(float64(n), epsilon)))
	if s < minSpace {
		s = minSpace
	}
	total := int64(2*m) + int64(float64(n)*float64(s)) // input + n^{1+ε} slack
	machines := int(total/int64(s)) + 1
	return &Model{
		n:        n,
		epsilon:  epsilon,
		s:        s,
		machines: machines,
		byLabel:  make(map[string]int),
	}
}

// S returns the per-machine space in words (0 for a nil model).
func (m *Model) S() int {
	if m == nil {
		return 0
	}
	return m.s
}

// Machines returns the simulated machine count.
func (m *Model) Machines() int {
	if m == nil {
		return 0
	}
	return m.machines
}

// Epsilon returns the space exponent.
func (m *Model) Epsilon() float64 {
	if m == nil {
		return 0
	}
	return m.epsilon
}

// Stats is a snapshot of accumulated accounting.
type Stats struct {
	Rounds           int
	RoundsByLabel    map[string]int
	Violations       []string
	PeakMachineWords int
	PeakTotalWords   int64
	SeedBatches      int
	SeedsEvaluated   int64 // charged candidates (see ChargeSeedBatch), scored by the host or not
	S                int
	Machines         int
}

// Stats returns a snapshot (zero value for a nil model).
func (m *Model) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	byLabel := make(map[string]int, len(m.byLabel))
	for k, v := range m.byLabel {
		byLabel[k] = v
	}
	return Stats{
		Rounds:           m.rounds,
		RoundsByLabel:    byLabel,
		Violations:       append([]string(nil), m.violations...),
		PeakMachineWords: m.peakMachineWords,
		PeakTotalWords:   m.peakTotalWords,
		SeedBatches:      m.seedBatches,
		SeedsEvaluated:   m.seedsEvaluated,
		S:                m.s,
		Machines:         m.machines,
	}
}

// LabelsSorted returns the labels of RoundsByLabel in sorted order (for
// stable table output).
func (s Stats) LabelsSorted() []string {
	labels := make([]string, 0, len(s.RoundsByLabel))
	for l := range s.RoundsByLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

func (m *Model) charge(rounds int, label string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rounds += rounds
	m.byLabel[label] += rounds
}

// ChargeRounds charges k generic rounds under the label.
func (m *Model) ChargeRounds(k int, label string) { m.charge(k, label) }

// ChargeSort charges one Lemma 4 sort: 4 rounds, the constant the
// message-level sample sort in internal/mpc achieves.
func (m *Model) ChargeSort(label string) { m.charge(4, label) }

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
func (m *Model) ChargeScan(label string) {
	if m == nil {
		return
	}
	m.charge(2*m.scanDepth(2)+1, label)
}

// ChargeBroadcast charges a tree broadcast of a k-word payload.
func (m *Model) ChargeBroadcast(k int, label string) {
	if m == nil {
		return
	}
	m.charge(m.scanDepth(k)+1, label)
}

// ChargeSeedBatch charges one batched seed evaluation round-trip: every
// machine evaluates its local objective for each of batch candidate seeds
// and one AllReduce of the batch-length vector selects the winner
// (2*depth + 1 rounds). The batch must fit one machine: batch <= S.
func (m *Model) ChargeSeedBatch(batch int, label string) {
	if m == nil {
		return
	}
	if batch > m.s {
		m.recordViolation(fmt.Sprintf("seed batch %d > S=%d [%s]", batch, m.s, label))
	}
	m.mu.Lock()
	m.seedBatches++
	m.seedsEvaluated += int64(batch)
	m.mu.Unlock()
	m.charge(2*m.scanDepth(batch)+1, label)
}

// MachineBudget returns the hard per-machine bound used by
// AssertMachineWords: 8·S. The paper's space claims are O(n^{8δ}) with
// δ = ε/8, i.e. S up to a constant factor; 8 is the constant all asserted
// structures (2-hop balls bounded by (2n^{4δ})² = 4n^ε, seed batches, …)
// respect in the analysis.
func (m *Model) MachineBudget() int {
	if m == nil {
		return 0
	}
	return 8 * m.s
}

// AssertMachineWords asserts that a single machine is asked to hold `words`
// words (e.g. a collected 2-hop neighbourhood); a violation is recorded if
// it exceeds MachineBudget. Returns true when the assertion holds.
func (m *Model) AssertMachineWords(words int, label string) bool {
	if m == nil {
		return true
	}
	m.mu.Lock()
	if words > m.peakMachineWords {
		m.peakMachineWords = words
	}
	m.mu.Unlock()
	if words > 8*m.s {
		m.recordViolation(fmt.Sprintf("machine holds %d words > budget 8S=%d [%s]", words, 8*m.s, label))
		return false
	}
	return true
}

// NoteTotalWords records a global space usage claim (e.g. all collected
// neighbourhoods across machines) and checks it against the paper's
// O(m + n^{1+ε}) total-space budget with a constant factor of 8.
func (m *Model) NoteTotalWords(words int64, label string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if words > m.peakTotalWords {
		m.peakTotalWords = words
	}
	m.mu.Unlock()
	budget := 8 * (int64(m.machines) * int64(m.s))
	if words > budget {
		m.recordViolation(fmt.Sprintf("total space %d > budget %d [%s]", words, budget, label))
	}
}

func (m *Model) recordViolation(v string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.violations = append(m.violations, v)
}

// Violations returns the recorded violations (nil for a nil model).
func (m *Model) Violations() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.violations...)
}

// Rounds returns the total charged rounds so far.
func (m *Model) Rounds() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rounds
}
