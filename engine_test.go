package repro

// Engine tests: the reusable-solver layer must (a) produce byte-identical
// results to the free functions, cold or warm, (b) be safe to share across
// goroutines, and (c) be allocation-flat once warm — a second solve on a
// warm Engine allocates a small constant number of objects, not O(n+m).

import (
	"fmt"
	"sync"
	"testing"
)

// engineOpts pins Parallelism to 1: AllocsPerRun demands a deterministic
// allocation count, and the serial path is the one with no goroutine
// bookkeeping. Cost tracking is off so the measurement sees only solver
// allocations. The determinism contract makes the outputs identical to any
// other Parallelism setting, so nothing is hidden by measuring serially.
func engineOpts(strat Strategy) *Options {
	return &Options{Strategy: strat, Parallelism: 1, SkipCostTracking: true}
}

// Allocation budgets for one warm re-solve. The cold working set of these
// workloads is tens of thousands of objects (n+m >= 8184); a warm engine
// re-solve measures in the hundreds — the remaining constant is result
// slices, per-search seed-batch state and shard descriptors. The budgets
// sit ~1.5x over the values measured WITH the epoch-stamped selection
// scratch in place (sparsify: ~1.4k/0.31k at both sizes; lowdeg:
// ~0.20k/0.17k at both sizes) — deliberately tight so that
// epoch state leaking out of the Reset-surviving Context slots (or any new
// per-round allocation) trips the assertion, while staying far below
// O(n+m) growth.
var warmAllocBudget = map[Strategy]struct{ mm, mis float64 }{
	StrategySparsify:  {mm: 2200, mis: 700},
	StrategyLowDegree: {mm: 300, mis: 260},
}

func TestEngineWarmReuseAllocsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts; budgets are enforced by the non-race run")
	}
	for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
		t.Run(string(strat), func(t *testing.T) {
			// The sparsify path gets a G(n,m) workload; the low-degree path
			// a bounded-degree one (its regime), whose line graph stays
			// affordable for the per-solve construction.
			family, avg := "gnm", 8
			if strat == StrategyLowDegree {
				family, avg = "regular", 6
			}
			g, err := Generate(family, 2048, avg, 1)
			if err != nil {
				t.Fatal(err)
			}
			budget := warmAllocBudget[strat]
			if float64(g.N()+g.M()) <= budget.mm {
				t.Fatalf("workload too small for the budget to mean anything: n+m=%d", g.N()+g.M())
			}

			eng := NewEngine(engineOpts(strat))
			if _, err := eng.MaximalMatching(g); err != nil {
				t.Fatal(err)
			}
			warm := testing.AllocsPerRun(2, func() {
				if _, err := eng.MaximalMatching(g); err != nil {
					t.Fatal(err)
				}
			})
			if warm > budget.mm {
				t.Errorf("warm MaximalMatching re-solve allocated %.0f objects, budget %.0f (n+m=%d)",
					warm, budget.mm, g.N()+g.M())
			}

			eng2 := NewEngine(engineOpts(strat))
			if _, err := eng2.MaximalIndependentSet(g); err != nil {
				t.Fatal(err)
			}
			warmIS := testing.AllocsPerRun(2, func() {
				if _, err := eng2.MaximalIndependentSet(g); err != nil {
					t.Fatal(err)
				}
			})
			if warmIS > budget.mis {
				t.Errorf("warm MaximalIndependentSet re-solve allocated %.0f objects, budget %.0f (n+m=%d)",
					warmIS, budget.mis, g.N()+g.M())
			}
		})
	}
}

// TestEngineWarmReuseAllocsFlatAcrossSizes doubles the workload and asserts
// the SAME fixed budgets still hold for every strategy × algorithm
// combination: the warm allocation count is a constant, not a fraction of
// n+m. At this size the budgets sit at 10-30% of n+m, so a regression that
// reintroduces even a fraction of an allocation per edge trips it.
func TestEngineWarmReuseAllocsFlatAcrossSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts; budgets are enforced by the non-race run")
	}
	for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
		t.Run(string(strat), func(t *testing.T) {
			family, avg := "gnm", 8
			if strat == StrategyLowDegree {
				family, avg = "regular", 6
			}
			g, err := Generate(family, 4096, avg, 1)
			if err != nil {
				t.Fatal(err)
			}
			budget := warmAllocBudget[strat]

			eng := NewEngine(engineOpts(strat))
			if _, err := eng.MaximalMatching(g); err != nil {
				t.Fatal(err)
			}
			warm := testing.AllocsPerRun(2, func() {
				if _, err := eng.MaximalMatching(g); err != nil {
					t.Fatal(err)
				}
			})
			if warm > budget.mm {
				t.Errorf("doubled workload: warm MaximalMatching re-solve allocated %.0f objects, budget %.0f (n+m=%d)",
					warm, budget.mm, g.N()+g.M())
			}

			eng2 := NewEngine(engineOpts(strat))
			if _, err := eng2.MaximalIndependentSet(g); err != nil {
				t.Fatal(err)
			}
			warmIS := testing.AllocsPerRun(2, func() {
				if _, err := eng2.MaximalIndependentSet(g); err != nil {
					t.Fatal(err)
				}
			})
			if warmIS > budget.mis {
				t.Errorf("doubled workload: warm MaximalIndependentSet re-solve allocated %.0f objects, budget %.0f (n+m=%d)",
					warmIS, budget.mis, g.N()+g.M())
			}
		})
	}
}

func TestEngineMatchesFreeFunctions(t *testing.T) {
	for _, w := range []struct {
		family string
		n, avg int
		strat  Strategy
	}{
		{"gnm", 512, 8, StrategySparsify},
		{"regular", 384, 6, StrategyLowDegree},
		{"powerlaw", 512, 6, StrategyAuto},
	} {
		t.Run(fmt.Sprintf("%s/%s", w.family, w.strat), func(t *testing.T) {
			g, err := Generate(w.family, w.n, w.avg, 3)
			if err != nil {
				t.Fatal(err)
			}
			opts := &Options{Strategy: w.strat}
			eng := NewEngine(opts)
			// Warm the engine on a different graph first so the comparison
			// below exercises dirty-buffer reuse, then solve twice.
			warmup, err := Generate("gnm", 700, 10, 9)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.MaximalMatching(warmup); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.MaximalIndependentSet(warmup); err != nil {
				t.Fatal(err)
			}

			wantMM, err := MaximalMatching(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantIS, err := MaximalIndependentSet(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				gotMM, err := eng.MaximalMatching(g)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotMM.Edges) != len(wantMM.Edges) || gotMM.Iterations != wantMM.Iterations {
					t.Fatalf("round %d: engine matching differs: %d edges/%d iters, want %d/%d",
						round, len(gotMM.Edges), gotMM.Iterations, len(wantMM.Edges), wantMM.Iterations)
				}
				for i := range gotMM.Edges {
					if gotMM.Edges[i] != wantMM.Edges[i] {
						t.Fatalf("round %d: edge %d is %v, want %v", round, i, gotMM.Edges[i], wantMM.Edges[i])
					}
				}
				gotIS, err := eng.MaximalIndependentSet(g)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotIS.Nodes) != len(wantIS.Nodes) || gotIS.Iterations != wantIS.Iterations {
					t.Fatalf("round %d: engine MIS differs: %d nodes/%d iters, want %d/%d",
						round, len(gotIS.Nodes), gotIS.Iterations, len(wantIS.Nodes), wantIS.Iterations)
				}
				for i := range gotIS.Nodes {
					if gotIS.Nodes[i] != wantIS.Nodes[i] {
						t.Fatalf("round %d: node %d is %d, want %d", round, i, gotIS.Nodes[i], wantIS.Nodes[i])
					}
				}
			}
		})
	}
}

// TestEngineConcurrentSolves shares one Engine across goroutines solving
// different graphs repeatedly; every result must match the free function.
// Run under -race this also proves pool checkout isolates solve state.
func TestEngineConcurrentSolves(t *testing.T) {
	type workload struct {
		g    *Graph
		want *MISResult
	}
	var workloads []workload
	for i := 0; i < 4; i++ {
		g, err := Generate("gnm", 300+60*i, 8, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := MaximalIndependentSet(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, workload{g: g, want: want})
	}
	eng := NewEngine(nil)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				w := workloads[(i+rep)%len(workloads)]
				got, err := eng.MaximalIndependentSet(w.g)
				if err != nil {
					errs <- err
					return
				}
				if len(got.Nodes) != len(w.want.Nodes) {
					errs <- fmt.Errorf("goroutine %d rep %d: %d nodes, want %d", i, rep, len(got.Nodes), len(w.want.Nodes))
					return
				}
				for j := range got.Nodes {
					if got.Nodes[j] != w.want.Nodes[j] {
						errs <- fmt.Errorf("goroutine %d rep %d: node %d differs", i, rep, j)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEngineNilGraph(t *testing.T) {
	eng := NewEngine(nil)
	if _, err := eng.MaximalMatching(nil); err != ErrNilGraph {
		t.Fatalf("MaximalMatching(nil): err = %v, want ErrNilGraph", err)
	}
	if _, err := eng.MaximalIndependentSet(nil); err != ErrNilGraph {
		t.Fatalf("MaximalIndependentSet(nil): err = %v, want ErrNilGraph", err)
	}
}
