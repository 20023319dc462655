// Command detmm runs the paper's deterministic maximal matching on a
// synthetic workload or an edge-list file and prints the outcome with its
// MPC cost report. The solve is request-scoped: Ctrl-C (SIGINT) or SIGTERM
// cancels it at the next round boundary, and -timeout bounds it with a
// deadline; -trace streams the deterministic per-round observer events to
// stderr.
//
// Usage:
//
//	detmm -graph gnm -n 4096 -deg 8 -eps 0.5 [-strategy auto] [-seed 1] [-v]
//	detmm -input graph.txt          # file: "n m" header then "u v" lines
//	detmm -graph gnm -n 100000 -timeout 500ms -trace
package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/solvecmd"
)

func main() {
	solvecmd.Main("detmm", "print the matched edges", func(ctx context.Context, eng *repro.Engine, g *repro.Graph, opts ...repro.SolveOption) (solvecmd.Result, error) {
		res, err := eng.MaximalMatchingCtx(ctx, g, opts...)
		if err != nil {
			return solvecmd.Result{}, err
		}
		return solvecmd.Result{
			Summary: fmt.Sprintf("matching: %d edges in %d iterations (strategy %s)", len(res.Edges), res.Iterations, res.Strategy),
			Costs:   res.Costs,
			Verbose: func() {
				for _, e := range res.Edges {
					fmt.Printf("%d %d\n", e.U, e.V)
				}
			},
		}, nil
	})
}
