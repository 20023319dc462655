// Package experiments implements the reproduction suite. The paper has no
// empirical tables or figures (it is a theory paper), so each experiment
// measures one of its theorem-level claims and renders a table (T1..T9),
// figure (F1, F2) or ablation (A1..A5) via internal/tablefmt; each table's
// notes state the paper claim next to what was measured. Run them with
// cmd/experiments. The index:
//
//   - T1: Theorem 7, maximal matching in O(log n) MPC rounds at S = n^ε.
//   - T2: Theorem 14, MIS in O(log n) MPC rounds, mirroring T1.
//   - T3: the per-iteration progress bounds of Sections 3.3 and 4.3.
//   - T4: the sparsification invariants, Lemmas 10/11 (edges) and 17/18
//     (nodes), stage by stage.
//   - T5: Theorem 1's low-degree regime (Section 5): O(log Δ) stages,
//     O(log n) phases, O(Δ⁴) colours, with both round accountings
//     (substitutions 2-3 of the repro package documentation).
//   - T6: Corollary 2, O(log Δ) CONGESTED CLIQUE rounds against the
//     round-accounting baseline of [15] (substitution 5).
//   - T7: the cost of the derandomization itself (Section 2.4): seeds
//     scanned, batches charged, thresholds met.
//   - T8: Lemma 4, sorting and prefix sums in O(1) rounds within S words
//     per machine.
//   - T9: the space ablation (§1.1.1): 2-hop neighbourhood words before and
//     after sparsification.
//   - F1: edge decay per iteration, deterministic vs randomized Luby.
//   - F2: round scaling, iterations vs n and stages vs Δ.
//   - A1: the seed-search threshold fraction (substitution 1).
//   - A2: the space exponent ε.
//   - A3: the independence order c of the stage hash family.
//   - A4: the concentration slack (substitution 4).
//   - A5: exact conditional expectations against the batched scan
//     (substitution 1).
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/tablefmt"
)

// Config scales the experiment suite.
type Config struct {
	// Quick shrinks the size grids so the full suite runs in seconds
	// (used by `go test` and the benchmarks); the default full grids take
	// a few minutes.
	Quick bool
	// Seed feeds the workload generators (never the deterministic
	// algorithms).
	Seed uint64
}

// DefaultConfig returns the full-size configuration with the canonical
// workload seed.
func DefaultConfig() Config { return Config{Seed: 1} }

// Runner produces one experiment's tables.
type Runner func(Config) []*tablefmt.Table

// registry maps experiment ids to runners; ids render in sorted order.
var registry = map[string]Runner{
	"T1": RunT1,
	"T2": RunT2,
	"T3": RunT3,
	"T4": RunT4,
	"T5": RunT5,
	"T6": RunT6,
	"T7": RunT7,
	"T8": RunT8,
	"T9": RunT9,
	"F1": RunF1,
	"F2": RunF2,
}

// IDs returns all experiment ids in render order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func Run(id string, cfg Config) ([]*tablefmt.Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(cfg), nil
}

// RunAll executes every experiment and writes the tables to w.
func RunAll(cfg Config, w io.Writer) error {
	for _, id := range IDs() {
		tables, err := Run(id, cfg)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// log2 returns log base 2 as float64 (guarding the x <= 1 corner so ratios
// against it stay finite).
func log2(x float64) float64 {
	if x <= 1 {
		return 1
	}
	return math.Log2(x)
}

// nGrid returns the node-count grid for the config.
func (c Config) nGrid() []int {
	if c.Quick {
		return []int{1 << 10, 1 << 11, 1 << 12}
	}
	return []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14}
}

// degGrid returns the Δ grid for the low-degree experiments.
func (c Config) degGrid() []int {
	if c.Quick {
		return []int{4, 8, 16}
	}
	return []int{4, 8, 16, 32}
}
