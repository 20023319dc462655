package repro

// Request-scoped API tests: per-solve option overrides must be bit-identical
// to a dedicated engine; cancellation must surface as typed errors, stop at
// round boundaries, and never corrupt the engine for later solves; observer
// event streams must be deterministic at every Parallelism level.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lowdeg"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/scratch"
)

// eventLog collects observer events; it is used from one solve at a time so
// it needs no locking (delivery is synchronous and in round order).
type eventLog struct {
	events []RoundEvent
}

func (l *eventLog) OnRound(ev RoundEvent) { l.events = append(l.events, ev) }

// cancelAfter cancels the solve's context as soon as `rounds` rounds have
// completed: a deterministic mid-solve cancellation point, since events are
// delivered synchronously at round boundaries.
type cancelAfter struct {
	rounds int
	cancel context.CancelFunc
	seen   int
}

func (c *cancelAfter) OnRound(RoundEvent) {
	c.seen++
	if c.seen == c.rounds {
		c.cancel()
	}
}

var overrideWorkloads = []struct {
	family string
	n, avg int
	seed   uint64
}{
	{"gnm", 512, 8, 1},
	{"powerlaw", 512, 6, 3},
	{"regular", 384, 6, 5},
	{"grid", 400, 4, 2},
}

// TestSolveOptionOverrideEquivalence pins the core promise of the
// request-scoped API: one shared default engine serving WithStrategy(s)
// requests is bit-identical, per (strategy, family) cell, to a dedicated
// engine constructed with that strategy — so heterogeneous traffic needs one
// warm engine, not one per configuration.
func TestSolveOptionOverrideEquivalence(t *testing.T) {
	shared := NewEngine(nil)
	ctx := context.Background()
	for _, w := range overrideWorkloads {
		for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
			t.Run(fmt.Sprintf("%s/%s", w.family, strat), func(t *testing.T) {
				g, err := Generate(w.family, w.n, w.avg, w.seed)
				if err != nil {
					t.Fatal(err)
				}
				dedicated := NewEngine(&Options{Strategy: strat})

				wantMM, err := dedicated.MaximalMatching(g)
				if err != nil {
					t.Fatal(err)
				}
				gotMM, err := shared.MaximalMatchingCtx(ctx, g, WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				if gotMM.Strategy != wantMM.Strategy || gotMM.Iterations != wantMM.Iterations ||
					len(gotMM.Edges) != len(wantMM.Edges) {
					t.Fatalf("override matching differs: %d edges/%d iters/%s, want %d/%d/%s",
						len(gotMM.Edges), gotMM.Iterations, gotMM.Strategy,
						len(wantMM.Edges), wantMM.Iterations, wantMM.Strategy)
				}
				for i := range gotMM.Edges {
					if gotMM.Edges[i] != wantMM.Edges[i] {
						t.Fatalf("edge %d is %v, want %v", i, gotMM.Edges[i], wantMM.Edges[i])
					}
				}

				wantIS, err := dedicated.MaximalIndependentSet(g)
				if err != nil {
					t.Fatal(err)
				}
				gotIS, err := shared.MaximalIndependentSetCtx(ctx, g, WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				if gotIS.Strategy != wantIS.Strategy || gotIS.Iterations != wantIS.Iterations ||
					len(gotIS.Nodes) != len(wantIS.Nodes) {
					t.Fatalf("override MIS differs: %d nodes/%d iters/%s, want %d/%d/%s",
						len(gotIS.Nodes), gotIS.Iterations, gotIS.Strategy,
						len(wantIS.Nodes), wantIS.Iterations, wantIS.Strategy)
				}
				for i := range gotIS.Nodes {
					if gotIS.Nodes[i] != wantIS.Nodes[i] {
						t.Fatalf("node %d is %d, want %d", i, gotIS.Nodes[i], wantIS.Nodes[i])
					}
				}
			})
		}
	}
}

// TestSolveOptionOverridesDoNotStick verifies that per-solve overrides are
// request-scoped: a later solve without options sees the engine's base
// Options untouched.
func TestSolveOptionOverridesDoNotStick(t *testing.T) {
	g, err := Generate("gnm", 512, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)
	want, err := eng.MaximalIndependentSet(g)
	if err != nil {
		t.Fatal(err)
	}
	// An override solve in between must not leak its strategy, space
	// exponent or threshold into the engine.
	if _, err := eng.MaximalIndependentSetCtx(context.Background(), g,
		WithStrategy(StrategyLowDegree), WithEpsilon(0.25), WithThresholdFrac(0.9)); err != nil {
		t.Fatal(err)
	}
	got, err := eng.MaximalIndependentSet(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy != want.Strategy || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("base solve drifted after override solve: %d nodes/%s, want %d/%s",
			len(got.Nodes), got.Strategy, len(want.Nodes), want.Strategy)
	}
	for i := range got.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("node %d differs after override solve", i)
		}
	}
	if got.Costs.SpacePerMachine != want.Costs.SpacePerMachine {
		t.Fatalf("WithEpsilon(0.25) leaked into the engine's base Options: S = %d, want %d",
			got.Costs.SpacePerMachine, want.Costs.SpacePerMachine)
	}
}

// TestObserverDeterministicAcrossParallelism pins the observer's determinism
// guarantee: the full event stream — order and every field — is identical at
// Parallelism 1, 2 and 8, for both algorithms and both strategies.
func TestObserverDeterministicAcrossParallelism(t *testing.T) {
	small, err := Generate("gnm", 512, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := NewEngine(nil)
	// Each strategy runs on the small graph, whose calls into
	// internal/parallel all stay below its serial cutoff, and on its input
	// of aboveCutoffCases, whose first-round calls exceed it.
	type input struct {
		name  string
		strat Strategy
		g     *Graph
	}
	inputs := []input{{"sparsify", StrategySparsify, small}, {"lowdeg", StrategyLowDegree, small}}
	for _, c := range aboveCutoffCases {
		g, err := Generate(c.family, c.n, c.avgDeg, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("%s-%s-n%d", c.strat, c.family, c.n), c.strat, g})
	}
	for _, in := range inputs {
		strat, g := in.strat, in.g
		for _, algo := range []string{"matching", "mis"} {
			t.Run(fmt.Sprintf("%s/%s", in.name, algo), func(t *testing.T) {
				var ref []RoundEvent
				for _, par := range []int{1, 2, 8} {
					log := &eventLog{}
					var err error
					if algo == "matching" {
						_, err = eng.MaximalMatchingCtx(ctx, g,
							WithStrategy(strat), WithParallelism(par), WithObserver(log))
					} else {
						_, err = eng.MaximalIndependentSetCtx(ctx, g,
							WithStrategy(strat), WithParallelism(par), WithObserver(log))
					}
					if err != nil {
						t.Fatalf("Parallelism=%d: %v", par, err)
					}
					if len(log.events) == 0 {
						t.Fatalf("Parallelism=%d: no observer events", par)
					}
					for i, ev := range log.events {
						if ev.Round != i+1 {
							t.Fatalf("Parallelism=%d: event %d has Round %d, want %d (round order)", par, i, ev.Round, i+1)
						}
						if ev.Algorithm != algo {
							t.Fatalf("Parallelism=%d: event %d Algorithm %q, want %q", par, i, ev.Algorithm, algo)
						}
					}
					if ref == nil {
						ref = log.events
						continue
					}
					if len(log.events) != len(ref) {
						t.Fatalf("Parallelism=%d: %d events, want %d", par, len(log.events), len(ref))
					}
					for i := range ref {
						// DeepEqual covers the seed-batch sub-events and the
						// incremental cost fields along with the scalars, so
						// the whole extended event must be bit-identical at
						// every Parallelism.
						if !reflect.DeepEqual(log.events[i], ref[i]) {
							t.Fatalf("Parallelism=%d: event %d is %+v, want %+v", par, i, log.events[i], ref[i])
						}
					}
				}
			})
		}
	}
}

// TestEngineCancellationPreCanceled: a context that is already dead fails
// fast with the full typed-error contract, before any solving starts.
func TestEngineCancellationPreCanceled(t *testing.T) {
	g, err := Generate("gnm", 256, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.MaximalMatchingCtx(ctx, g); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled matching: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	// An already-expired deadline surfaces its own cause.
	dctx, dcancel := context.WithTimeout(context.Background(), -1)
	defer dcancel()
	if _, err := eng.MaximalIndependentSetCtx(dctx, g); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline MIS: err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}

// TestEngineCancellationMidSolve cancels from the observer after the first
// round — a deterministic mid-solve cancellation — and verifies the typed
// error, that the engine still produces reference-identical results
// afterwards, and that the canceled solve's scratch context was re-pooled
// (the engine stays allocation-flat, not re-warming from scratch).
func TestEngineCancellationMidSolve(t *testing.T) {
	for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
		t.Run(string(strat), func(t *testing.T) {
			family, avg := "gnm", 8
			if strat == StrategyLowDegree {
				family, avg = "regular", 6
			}
			g, err := Generate(family, 2048, avg, 1)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(engineOpts(strat))
			want, err := eng.MaximalMatching(g) // also warms the pool
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err = eng.MaximalMatchingCtx(ctx, g, WithObserver(&cancelAfter{rounds: 1, cancel: cancel}))
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("mid-solve cancel: err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-solve cancel: err = %v, want errors.Is(err, context.Canceled)", err)
			}

			// The engine must be unharmed: same bits as before the cancel.
			got, err := eng.MaximalMatching(g)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Edges) != len(want.Edges) || got.Iterations != want.Iterations {
				t.Fatalf("post-cancel solve differs: %d edges/%d iters, want %d/%d",
					len(got.Edges), got.Iterations, len(want.Edges), want.Iterations)
			}
			for i := range got.Edges {
				if got.Edges[i] != want.Edges[i] {
					t.Fatalf("post-cancel edge %d is %v, want %v", i, got.Edges[i], want.Edges[i])
				}
			}

			if testing.Short() || raceEnabled {
				return // alloc budgets hold only without race instrumentation
			}
			// Allocation-flatness survives the cancel: the canceled solve's
			// scratch context went back into the pool Reset, so warm budgets
			// still hold (same budgets as TestEngineWarmReuseAllocsConstant).
			budget := warmAllocBudget[strat]
			warm := testing.AllocsPerRun(2, func() {
				if _, err := eng.MaximalMatching(g); err != nil {
					t.Fatal(err)
				}
			})
			if warm > budget.mm {
				t.Errorf("post-cancel warm re-solve allocated %.0f objects, budget %.0f", warm, budget.mm)
			}
		})
	}
}

// TestEngineCancellationWorkerCountTable is the -race table of the
// cancellation satellite: at every Parallelism level, for both algorithms
// and strategies, a mid-solve cancellation must leave the shared engine able
// to produce reference-identical results — cancellation abandons state, it
// never corrupts it. Wired into make race-engine / the CI engine-race job.
func TestEngineCancellationWorkerCountTable(t *testing.T) {
	g, err := Generate("gnm", 512, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)
	for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/par=%d", strat, par), func(t *testing.T) {
				wantMM, err := eng.MaximalMatchingCtx(context.Background(), g,
					WithStrategy(strat), WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				wantIS, err := eng.MaximalIndependentSetCtx(context.Background(), g,
					WithStrategy(strat), WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if _, err := eng.MaximalMatchingCtx(ctx, g, WithStrategy(strat), WithParallelism(par),
					WithObserver(&cancelAfter{rounds: 1, cancel: cancel})); !errors.Is(err, ErrCanceled) {
					t.Fatalf("matching cancel: err = %v, want ErrCanceled", err)
				}
				ctx2, cancel2 := context.WithCancel(context.Background())
				defer cancel2()
				if _, err := eng.MaximalIndependentSetCtx(ctx2, g, WithStrategy(strat), WithParallelism(par),
					WithObserver(&cancelAfter{rounds: 1, cancel: cancel2})); !errors.Is(err, ErrCanceled) {
					t.Fatalf("MIS cancel: err = %v, want ErrCanceled", err)
				}

				gotMM, err := eng.MaximalMatchingCtx(context.Background(), g,
					WithStrategy(strat), WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				if len(gotMM.Edges) != len(wantMM.Edges) {
					t.Fatalf("post-cancel matching: %d edges, want %d", len(gotMM.Edges), len(wantMM.Edges))
				}
				for i := range gotMM.Edges {
					if gotMM.Edges[i] != wantMM.Edges[i] {
						t.Fatalf("post-cancel edge %d differs", i)
					}
				}
				gotIS, err := eng.MaximalIndependentSetCtx(context.Background(), g,
					WithStrategy(strat), WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				if len(gotIS.Nodes) != len(wantIS.Nodes) {
					t.Fatalf("post-cancel MIS: %d nodes, want %d", len(gotIS.Nodes), len(wantIS.Nodes))
				}
				for i := range gotIS.Nodes {
					if gotIS.Nodes[i] != wantIS.Nodes[i] {
						t.Fatalf("post-cancel node %d differs", i)
					}
				}
			})
		}
	}
}

// TestTypedErrors pins the errors.Is / errors.As contract of the structured
// sentinels.
func TestTypedErrors(t *testing.T) {
	g, err := Generate("path", 10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)

	_, err = eng.MaximalMatchingCtx(context.Background(), g, WithStrategy("nope"))
	if !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("unknown strategy: err = %v, want ErrUnknownStrategy", err)
	}
	var use *UnknownStrategyError
	if !errors.As(err, &use) || use.Strategy != "nope" {
		t.Fatalf("errors.As(*UnknownStrategyError) failed on %v", err)
	}
	if _, err := MaximalIndependentSet(g, &Options{Strategy: "bogus"}); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("free-function unknown strategy: err = %v, want ErrUnknownStrategy", err)
	}
	// ValidateOptions rejects the same value without solving.
	err = ValidateOptions(WithStrategy("bogus"))
	if !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("ValidateOptions(unknown strategy) = %v, want ErrUnknownStrategy", err)
	}
	if !errors.As(err, &use) || use.Strategy != "bogus" {
		t.Fatalf("errors.As(*UnknownStrategyError) failed on ValidateOptions' %v", err)
	}

	// The cancellation error chain: ErrCanceled AND the context cause.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.MaximalMatchingCtx(ctx, g)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: err = %v, want ErrCanceled + context.Canceled", err)
	}

	// A NotMaximalError is an internal invariant failure and unreachable
	// through the public API; pin its matching behaviour directly.
	nme := error(&NotMaximalError{Algorithm: "matching", Reason: "edge {0,1} unmatched"})
	if !errors.Is(nme, ErrNotMaximal) {
		t.Fatal("NotMaximalError does not match ErrNotMaximal")
	}
	var asNME *NotMaximalError
	if !errors.As(nme, &asNME) || asNME.Reason == "" {
		t.Fatal("errors.As(*NotMaximalError) failed")
	}
}

// TestInvalidOptionsRejected is the regression test for the ε crash: an ε
// whose 1/δ = ⌈8/ε⌉ reaches core.SlotMax (every ε < 8/63 ≈ 0.127), or one
// outside (0, 1], used to panic inside core. Every entry point now returns
// ErrInvalidOption before solving, and the engine stays usable afterwards.
func TestInvalidOptionsRejected(t *testing.T) {
	g, err := Generate("gnm", 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)
	for _, c := range []struct {
		name string
		opt  SolveOption
	}{
		{"epsilon 0.12", WithEpsilon(0.12)},
		{"epsilon -1", WithEpsilon(-1)},
		{"epsilon 1.5", WithEpsilon(1.5)},
		{"epsilon NaN", WithEpsilon(math.NaN())},
		{"epsilon tiny", WithEpsilon(math.SmallestNonzeroFloat64)},
		{"slack -2", WithSlack(-2)},
		{"threshold 1.5", WithThresholdFrac(1.5)},
		{"threshold -0.5", WithThresholdFrac(-0.5)},
	} {
		if err := ValidateOptions(c.opt); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: ValidateOptions = %v, want ErrInvalidOption", c.name, err)
		}
		if _, err := eng.MaximalMatchingCtx(context.Background(), g, c.opt); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: MaximalMatchingCtx err = %v, want ErrInvalidOption", c.name, err)
		}
		if _, err := eng.MaximalIndependentSetCtx(context.Background(), g, c.opt); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: MaximalIndependentSetCtx err = %v, want ErrInvalidOption", c.name, err)
		}
	}
	if _, err := MaximalMatching(g, &Options{Epsilon: 0.12}); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("free function, epsilon 0.12: err = %v, want ErrInvalidOption", err)
	}
	if _, err := NewEngine(&Options{Epsilon: -1}).MaximalIndependentSet(g); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("engine base epsilon -1: err = %v, want ErrInvalidOption", err)
	}
	// The smallest accepted ε just above the cut, and the defaults, solve.
	if err := ValidateOptions(WithEpsilon(0.13), WithSlack(1), WithThresholdFrac(1)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
		if _, err := eng.MaximalMatchingCtx(context.Background(), g, WithEpsilon(0.13), WithStrategy(strat)); err != nil {
			t.Errorf("%s, epsilon 0.13: %v", strat, err)
		}
		if _, err := eng.MaximalIndependentSetCtx(context.Background(), g, WithEpsilon(0.13), WithStrategy(strat)); err != nil {
			t.Errorf("%s, epsilon 0.13: %v", strat, err)
		}
	}
}

// TestObserverSeedBatchEvents pins the seed-batch-granular sub-events and
// the incremental cost fields of the extended RoundEvent: per round, the
// batch stats must tile the round's search exactly (cumulative counts,
// batches of the model's S, only the last one shorter, summing to
// SeedsTried, the Found flag landing on the last batch iff the round found
// its seed), and the cost counters must be cumulative across the event
// stream.
func TestObserverSeedBatchEvents(t *testing.T) {
	g, err := Generate("gnm", 512, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)
	for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree} {
		t.Run(string(strat), func(t *testing.T) {
			log := &eventLog{}
			res, err := eng.MaximalMatchingCtx(context.Background(), g,
				WithStrategy(strat), WithObserver(log))
			if err != nil {
				t.Fatal(err)
			}
			if len(log.events) == 0 {
				t.Fatal("no observer events")
			}
			s := res.Costs.SpacePerMachine
			prevRounds, prevBatches := 0, 0
			for _, ev := range log.events {
				if len(ev.Batches) == 0 {
					t.Fatalf("round %d: no seed-batch sub-events (SeedsTried=%d)", ev.Round, ev.SeedsTried)
				}
				sum, cum := 0, 0
				for i, b := range ev.Batches {
					if b.Batch != i+1 {
						t.Fatalf("round %d: batch %d has index %d", ev.Round, i, b.Batch)
					}
					if b.Seeds <= 0 || b.Seeds > s || b.Seeds < s && i < len(ev.Batches)-1 {
						t.Fatalf("round %d batch %d of %d: %d seeds, want S = %d", ev.Round, b.Batch, len(ev.Batches), b.Seeds, s)
					}
					sum += b.Seeds
					cum = b.SeedsTried
					if cum != sum {
						t.Fatalf("round %d batch %d: cumulative %d, want %d", ev.Round, b.Batch, cum, sum)
					}
					if b.Found != (i == len(ev.Batches)-1 && ev.SeedFound) {
						t.Fatalf("round %d batch %d: Found=%v misplaced", ev.Round, b.Batch, b.Found)
					}
				}
				if sum != ev.SeedsTried {
					t.Fatalf("round %d: batches sum to %d seeds, event says %d", ev.Round, sum, ev.SeedsTried)
				}
				// Cost counters are cumulative snapshots of one model.
				if ev.CostRounds <= prevRounds || ev.CostSeedBatches < prevBatches+len(ev.Batches) {
					t.Fatalf("round %d: cost counters not cumulative: rounds %d (prev %d), batches %d (prev %d + %d)",
						ev.Round, ev.CostRounds, prevRounds, ev.CostSeedBatches, prevBatches, len(ev.Batches))
				}
				prevRounds, prevBatches = ev.CostRounds, ev.CostSeedBatches
			}
		})
	}
}

// TestDeadlineErrorMapping pins the ErrDeadlineExceeded refinement: a solve
// abandoned because its deadline expired matches ErrCanceled AND
// ErrDeadlineExceeded AND context.DeadlineExceeded, while a plain
// cancellation matches ErrCanceled but NOT ErrDeadlineExceeded — that is
// what lets a server map 504 vs 499 off one error value.
func TestDeadlineErrorMapping(t *testing.T) {
	g, err := Generate("gnm", 2048, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(nil)

	// Already-expired deadline: the pre-solve fast path.
	dctx, dcancel := context.WithTimeout(context.Background(), -time.Second)
	defer dcancel()
	_, err = eng.MaximalMatchingCtx(dctx, g)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want ErrCanceled + ErrDeadlineExceeded + context.DeadlineExceeded", err)
	}

	// Deadline firing mid-solve: cancelAfter flips a deadline-expired
	// context into the solve deterministically after round 1 by pairing the
	// observer with an extremely short timeout armed at that point.
	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()
	_, err = eng.MaximalMatchingCtx(mctx, g, WithObserver(&cancelAfter{rounds: 1, cancel: mcancel}))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-solve cancel: err = %v, want ErrCanceled", err)
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("plain cancellation must not match ErrDeadlineExceeded: %v", err)
	}

	// ErrOverloaded is a sibling, never produced by the Engine itself.
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancellation error must not match ErrOverloaded: %v", err)
	}
}

// TestObserverEventsMatchResults cross-checks the observer stream of every
// derandomized round loop against the loop's own round records, on two
// families: event i reports round i+1 with the record's search (SeedsTried,
// SeedFound, and batches that sum to SeedsTried), its Selected and its
// round-start edge count, so the telemetry seam reports the solve that
// actually happened. The only record without an event is a trailing,
// search-less one of mis, which records the last isolated join; the table
// fails unless some solve ends with one.
func TestObserverEventsMatchResults(t *testing.T) {
	solvers := []struct {
		name, algorithm, strategy string
		trailing                  bool // may end with a search-less record
		run                       func(*Graph, core.Params) []core.Round
	}{
		{"matching", "matching", "sparsify", false, func(g *Graph, p core.Params) []core.Round {
			return matching.DeterministicIn(scratch.New(), g, p, costModel(g, p)).Rounds
		}},
		{"mis", "mis", "sparsify", true, func(g *Graph, p core.Params) []core.Round {
			return mis.DeterministicIn(scratch.New(), g, p, costModel(g, p)).Rounds
		}},
		{"lowdeg-mis", "mis", "lowdeg", false, func(g *Graph, p core.Params) []core.Round {
			return lowdeg.MISIn(scratch.New(), g, p, costModel(g, p)).Rounds
		}},
		{"lowdeg-matching", "matching", "lowdeg", false, func(g *Graph, p core.Params) []core.Round {
			return lowdeg.MaximalMatchingIn(scratch.New(), g, p, costModel(g, p)).MIS.Rounds
		}},
	}
	trailing := 0
	for _, w := range []struct {
		family string
		n, avg int
		seed   uint64
	}{{"powerlaw", 512, 6, 1}, {"regular", 384, 6, 5}} {
		g, err := Generate(w.family, w.n, w.avg, w.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range solvers {
			t.Run(w.family+"/"+s.name, func(t *testing.T) {
				var events []RoundEvent
				p := core.DefaultParams()
				p.Observe = func(ev RoundEvent) { events = append(events, ev) }
				rounds := s.run(g, p)
				if len(rounds) == 0 {
					t.Fatal("no rounds recorded")
				}
				if last := len(rounds) - 1; s.trailing && len(events) == last && rounds[last] == (core.Round{}) {
					rounds = rounds[:last]
					trailing++
				}
				if len(events) != len(rounds) {
					t.Fatalf("%d events for %d searched rounds", len(events), len(rounds))
				}
				for i, ev := range events {
					r := rounds[i]
					if ev.Round != i+1 || ev.Algorithm != s.algorithm || ev.Strategy != s.strategy {
						t.Fatalf("event %d is round %d of %s/%s, want round %d of %s/%s",
							i, ev.Round, ev.Algorithm, ev.Strategy, i+1, s.algorithm, s.strategy)
					}
					if r.SeedsTried <= 0 || ev.SeedsTried != r.SeedsTried || ev.SeedFound != r.SeedFound ||
						ev.Selected != r.Selected || ev.LiveEdges != r.EdgesBefore {
						t.Fatalf("event %d %+v does not match record %+v", i, ev, r)
					}
					if nb := len(ev.Batches); nb == 0 || ev.Batches[nb-1].SeedsTried != r.SeedsTried {
						t.Fatalf("event %d: batches %+v do not sum to %d seeds", i, ev.Batches, r.SeedsTried)
					}
					if ev.LiveNodes <= 0 {
						t.Fatalf("event %d: %d live nodes", i, ev.LiveNodes)
					}
				}
			})
		}
	}
	if trailing == 0 {
		t.Error("no mis solve ended with a search-less record, so the table does not cover one")
	}
}

// TestForcedLowDegreeStarMeetsDeadline: a matching forced onto the Section
// 5 path on a star with k leaves colours the line graph K_k, whose every
// preprocessing pass costs Θ(k³) (several seconds in all at k = 1500) and
// one node's share of a pass Θ(k²). The preprocessing polls the deadline
// within its shards, once per coloring.PollBudget of work, so a 50 ms
// deadline ends the solve with ErrDeadlineExceeded soon after it passes:
// at k = 2000 within 0.25 s, which a poll once per shard misses.
// Race instrumentation slows the shards past any such bound, so the test
// skips under -race.
func TestForcedLowDegreeStarMeetsDeadline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation slows every shard past the latency bound")
	}
	for _, tc := range []struct {
		k     int
		bound time.Duration
	}{{1500, time.Second}, {2000, 250 * time.Millisecond}} {
		g, err := Generate("star", tc.k+1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err = NewEngine(nil).MaximalMatchingCtx(ctx, g, WithStrategy(StrategyLowDegree))
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("k=%d: err = %v, want ErrDeadlineExceeded", tc.k, err)
		}
		if elapsed > tc.bound {
			t.Fatalf("k=%d: solve returned %v after its start, want under %v", tc.k, elapsed, tc.bound)
		}
	}
}
