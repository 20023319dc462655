// Quickstart: build a small graph with the public API, compute a maximal
// matching and an MIS deterministically, and inspect the MPC cost report.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// A 6-node graph: a triangle joined to a path.
	//
	//   0 - 1        3 - 4 - 5
	//    \ /        /
	//     2 -------
	b := repro.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	fmt.Printf("graph: n=%d m=%d Δ=%d\n\n", g.N(), g.M(), g.MaxDegree())

	mm, err := repro.MaximalMatching(g, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maximal matching (%d edges, %d iterations, strategy %s):\n",
		len(mm.Edges), mm.Iterations, mm.Strategy)
	for _, e := range mm.Edges {
		fmt.Printf("  {%d, %d}\n", e.U, e.V)
	}

	is, err := repro.MaximalIndependentSet(g, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmaximal independent set (%d nodes): %v\n", len(is.Nodes), is.Nodes)

	// The cost report, which every result carries, shows what this run
	// would have cost on a real MPC cluster with S = n^ε words per machine.
	c := is.Costs
	fmt.Printf("\nMPC accounting: %d rounds, %d machines × %d words, %d seed batches\n",
		c.Rounds, c.Machines, c.SpacePerMachine, c.SeedBatches)

	// Scaling up: larger synthetic workloads through a reusable Engine.
	// The free functions above are one-shot wrappers; when solving
	// repeatedly (a service handling graph after graph), construct one
	// Engine and share it — every solve after the first reuses the pooled
	// per-solve buffers, so steady-state traffic is allocation-flat.
	// Results are bit-identical to the free functions either way.
	// A server shares ONE engine across all request shapes: solves are
	// request-scoped, so each call carries its own context (deadline /
	// cancellation, honoured at round boundaries) and per-solve option
	// overrides layered over the engine's base Options — bit-identical to a
	// dedicated engine constructed with those Options.
	eng := repro.NewEngine(nil)
	for seed := uint64(7); seed < 10; seed++ {
		big, err := repro.Generate("gnm", 4096, 12, seed)
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := eng.MaximalIndependentSetCtx(ctx, big,
			repro.WithStrategy(repro.StrategySparsify))
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nG(4096, 24576) seed %d: MIS of %d nodes in %d iterations, %d charged MPC rounds\n",
			seed, len(res.Nodes), res.Iterations, res.Costs.Rounds)
	}
}
