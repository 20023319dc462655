package repro

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/check"
)

// The option values FuzzSolveValid draws from. Slack stays at 1 or above:
// below it the stage searches of a sparsify solve exhaust their seed
// budget, which is the expected behaviour (see the A4 ablation) but takes
// about a second per solve even at n = 96.
var (
	fuzzEpsilons = []float64{0.13, 0.25, 0.5, 1}
	fuzzSlacks   = []float64{1, 4, 64}
	fuzzFracs    = []float64{0.01, 0.5, 1}
	// fuzzInvalid are overrides every solve must reject with a typed error
	// before it starts.
	fuzzInvalid = []SolveOption{
		WithEpsilon(0.12),
		WithEpsilon(1.5),
		WithEpsilon(math.NaN()),
		WithSlack(-1),
		WithThresholdFrac(2),
		WithThresholdFrac(-0.5),
		WithStrategy("bogus"),
	}
)

// fuzzMaxEdges bounds the edge list decoded from one input, which keeps a
// single execution in the milliseconds.
const fuzzMaxEdges = 1024

// FuzzSolveValid solves arbitrary small graphs, not only the generator
// families, with both problems under each strategy: sparsify and lowdeg
// forced, and auto. The input picks n ≤ 96 (n), ε, slack and ThresholdFrac
// (knobs), an optional invalid override (bad, when it indexes fuzzInvalid)
// and the edge list (byte pairs taken mod n; self loops and duplicates are
// dropped by FromEdges). Every output must be a maximal matching or a
// maximal independent set by internal/check and carry its Costs, the
// results at Parallelism 1 and 8 on one reused Engine must be equal in
// every field, and an invalid option must come back as ErrInvalidOption or
// ErrUnknownStrategy, from ValidateOptions and from the solve alike, never
// as a panic.
func FuzzSolveValid(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(255), []byte{})
	f.Add(uint8(2), uint8(1), uint8(255), []byte{0, 1})
	f.Add(uint8(9), uint8(14), uint8(255), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8})
	f.Add(uint8(3), uint8(35), uint8(255), []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(6), uint8(27), uint8(255), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5})
	f.Add(uint8(3), uint8(2), uint8(0), []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(6), uint8(5), uint8(6), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5})
	// The 64-node Möbius ladder (edges {i, i+1 mod 64} and {i, i+32}) at
	// ε = 0.5, slack 4 and ThresholdFrac 0.5: Δ⁴ = 81 fits the machine
	// budget 8·S only with S floored at 16, above ⌈64^0.5⌉ = 8.
	var ladder []byte
	for i := 0; i < 64; i++ {
		ladder = append(ladder, byte(i), byte((i+1)%64))
		if i < 32 {
			ladder = append(ladder, byte(i), byte(i+32))
		}
	}
	f.Add(uint8(64), uint8(18), uint8(255), ladder)

	eng := NewEngine(nil)
	typed := func(err error) bool { return errors.Is(err, ErrInvalidOption) || errors.Is(err, ErrUnknownStrategy) }
	f.Fuzz(func(t *testing.T, n, knobs, bad uint8, raw []byte) {
		nodes := int(n) % 97
		var edges []Edge
		if nodes > 0 {
			for i := 0; i+1 < len(raw) && len(edges) < fuzzMaxEdges; i += 2 {
				edges = append(edges, Edge{U: NodeID(int(raw[i]) % nodes), V: NodeID(int(raw[i+1]) % nodes)})
			}
		}
		g := FromEdges(nodes, edges)
		k := int(knobs)
		opts := []SolveOption{
			WithEpsilon(fuzzEpsilons[k%len(fuzzEpsilons)]),
			WithSlack(fuzzSlacks[k/len(fuzzEpsilons)%len(fuzzSlacks)]),
			WithThresholdFrac(fuzzFracs[k/(len(fuzzEpsilons)*len(fuzzSlacks))%len(fuzzFracs)]),
		}
		invalid := int(bad) < len(fuzzInvalid)
		if invalid {
			opts = append(opts, fuzzInvalid[bad])
		}
		if err := ValidateOptions(opts...); invalid != typed(err) || !invalid && err != nil {
			t.Fatalf("ValidateOptions = %v for invalid=%v", err, invalid)
		}

		ctx := context.Background()
		for _, strat := range []Strategy{StrategySparsify, StrategyLowDegree, StrategyAuto} {
			// The override list is rebuilt per strategy so fuzzInvalid's
			// strategy, applied last, still wins.
			base := append([]SolveOption{WithStrategy(strat)}, opts...)
			at := func(par int) []SolveOption { return append(base[:len(base):len(base)], WithParallelism(par)) }

			mm1, err := eng.MaximalMatchingCtx(ctx, g, at(1)...)
			if invalid {
				if !typed(err) {
					t.Fatalf("%s matching with an invalid option: err = %v", strat, err)
				}
				if _, err := eng.MaximalIndependentSetCtx(ctx, g, at(1)...); !typed(err) {
					t.Fatalf("%s MIS with an invalid option: err = %v", strat, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s matching: %v", strat, err)
			}
			if ok, reason := check.IsMaximalMatching(g, mm1.Edges); !ok {
				t.Fatalf("%s matching not maximal: %s", strat, reason)
			}
			if mm1.Costs == nil {
				t.Fatalf("%s matching carries no Costs", strat)
			}
			mm8, err := eng.MaximalMatchingCtx(ctx, g, at(8)...)
			if err != nil {
				t.Fatalf("%s matching at Parallelism 8: %v", strat, err)
			}
			if !reflect.DeepEqual(mm1, mm8) {
				t.Fatalf("%s matching differs between Parallelism 1 and 8:\n%+v\n%+v", strat, mm1, mm8)
			}

			is1, err := eng.MaximalIndependentSetCtx(ctx, g, at(1)...)
			if err != nil {
				t.Fatalf("%s MIS: %v", strat, err)
			}
			if ok, reason := check.IsMaximalIS(g, is1.Nodes); !ok {
				t.Fatalf("%s MIS not maximal: %s", strat, reason)
			}
			if is1.Costs == nil {
				t.Fatalf("%s MIS carries no Costs", strat)
			}
			is8, err := eng.MaximalIndependentSetCtx(ctx, g, at(8)...)
			if err != nil {
				t.Fatalf("%s MIS at Parallelism 8: %v", strat, err)
			}
			if !reflect.DeepEqual(is1, is8) {
				t.Fatalf("%s MIS differs between Parallelism 1 and 8:\n%+v\n%+v", strat, is1, is8)
			}
		}
	})
}
