package repro

// Engine tests: the reusable-solver layer must (a) produce byte-identical
// results to the free functions, cold or warm, (b) be safe to share across
// goroutines, and (c) be allocation-flat once warm — a second solve on a
// warm Engine allocates a small constant number of objects, not O(n+m).

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// engineOpts pins Parallelism to 1: AllocsPerRun demands a deterministic
// allocation count, and the serial path is the one with no goroutine
// bookkeeping. The measurement includes the cost model and the CostReport
// every solve builds. The determinism contract makes the outputs identical
// to any other Parallelism setting, so nothing is hidden by measuring
// serially.
func engineOpts(strat Strategy) *Options {
	return &Options{Strategy: strat, Parallelism: 1}
}

// Allocation budgets for one warm re-solve. The cold working set of these
// workloads is tens of thousands of objects (n+m >= 8184); a warm engine
// re-solve measures in the hundreds — the remaining constant is result
// slices, the cost model and its report, per-search seed state and the
// shard bodies' closures. The object budgets are one constant per strategy
// at every size and density; they sit ~1.5x over the values measured with
// every sparsify stage hashing its items once per candidate into one arena
// row, applying a found seed through that row and skipping the invariant
// audits, every seed search scoring serially on one selection state per
// solve and collecting batch stats only on observed solves, the Section 5
// preprocessing walking each ball once, and internal/parallel's serial
// path allocating no shard descriptors or partials (sparsify: mm 158–202,
// mis 79–105 objects; lowdeg: mm 115–120, mis 86–88) — deliberately tight so
// that epoch state leaking out of the Reset-surviving Context slots (or
// any new per-round allocation) trips the assertion, while staying far
// below O(n+m) growth.
var warmAllocBudget = map[Strategy]struct{ mm, mis float64 }{
	StrategySparsify:  {mm: 330, mis: 165},
	StrategyLowDegree: {mm: 175, mis: 135},
}

// warmWorkload is one graph a strategy's warm re-solves are measured on,
// with its bytes budget in KB per solve at each node count. Bytes grow
// with the graph where objects do not: per-solve seed-search state and
// result slices scale with n, and the lowdeg matching path builds a line
// graph per solve. The budgets sit ~1.5x over the measured values (KB,
// mm/mis at n = 2048 and 4096: sparsify gnm avg 8 101/51 and 230/96,
// avg 16 107/32 and 239/56; lowdeg 800/141 and 1600/268), so the stage
// chains' old per-group appends — 2.3 MB of a 3.0 MB matching solve at
// avg 16 — and internal/parallel's per-call shard descriptors (~1 KB a
// call) cannot return unnoticed.
type warmWorkload struct {
	family string
	avg    int
	kb     map[int]struct{ mm, mis float64 }
}

var warmWorkloads = map[Strategy][]warmWorkload{
	// G(n,m) at two densities: the stage chains' group layouts grow with
	// the degree.
	StrategySparsify: {
		{"gnm", 8, map[int]struct{ mm, mis float64 }{2048: {155, 80}, 4096: {345, 145}}},
		{"gnm", 16, map[int]struct{ mm, mis float64 }{2048: {160, 50}, 4096: {360, 85}}},
	},
	// A bounded-degree graph (the regime), whose line graph stays
	// affordable for the per-solve construction.
	StrategyLowDegree: {
		{"regular", 6, map[int]struct{ mm, mis float64 }{2048: {1200, 215}, 4096: {2400, 405}}},
	},
}

// warmCost returns the objects and bytes one warm re-solve of a fresh
// engine allocates, averaged over two runs, as in testing.AllocsPerRun.
// Three solves come first: the cold one, and two more because the scratch
// arenas' best-fit free lists settle only on an engine's third solve. Every
// solve runs at GOMAXPROCS 1, because the engine pools its scratch context
// in a sync.Pool, whose per-P private slot a solve on another P cannot
// see, and with the collector off, so no collection drains a pool
// mid-solve.
func warmCost(solve func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		solve()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 2
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// checkWarmBudgets solves every workload of strat at n nodes on two fresh
// engines, one per problem, and holds each warm re-solve to the strategy's
// object budget and the workload's bytes budget.
func checkWarmBudgets(t *testing.T, strat Strategy, n int) {
	budget := warmAllocBudget[strat]
	for _, w := range warmWorkloads[strat] {
		g, err := Generate(w.family, n, w.avg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if float64(g.N()+g.M()) <= budget.mm {
			t.Fatalf("workload too small for the budget to mean anything: n+m=%d", g.N()+g.M())
		}
		kb := w.kb[n]
		for _, c := range []struct {
			problem           string
			solve             func(*Engine) error
			objects, bytesMax float64
		}{
			{"MaximalMatching", func(e *Engine) error { _, err := e.MaximalMatching(g); return err }, budget.mm, kb.mm * 1024},
			{"MaximalIndependentSet", func(e *Engine) error { _, err := e.MaximalIndependentSet(g); return err }, budget.mis, kb.mis * 1024},
		} {
			eng := NewEngine(engineOpts(strat))
			objects, bytes := warmCost(func() {
				if err := c.solve(eng); err != nil {
					t.Fatal(err)
				}
			})
			if objects > c.objects {
				t.Errorf("%s n=%d avg=%d: warm %s re-solve allocated %.0f objects, budget %.0f (n+m=%d)",
					w.family, n, w.avg, c.problem, objects, c.objects, g.N()+g.M())
			}
			if bytes > c.bytesMax {
				t.Errorf("%s n=%d avg=%d: warm %s re-solve allocated %.0f KB, budget %.0f KB",
					w.family, n, w.avg, c.problem, bytes/1024, c.bytesMax/1024)
			}
		}
	}
}

func TestEngineWarmReuseAllocsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression is slow")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts; budgets are enforced by the non-race run")
	}
	for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
		t.Run(string(strat), func(t *testing.T) { checkWarmBudgets(t, strat, 2048) })
	}
}

// TestEngineWarmReuseAllocsFlatAcrossSizes doubles the workload and asserts
// the SAME fixed object budgets still hold for every strategy × algorithm
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
		t.Run(string(strat), func(t *testing.T) { checkWarmBudgets(t, strat, 4096) })
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
