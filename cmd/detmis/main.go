// Command detmis runs the paper's deterministic maximal independent set on
// a synthetic workload or an edge-list file and prints the outcome with its
// MPC cost report. The solve is request-scoped: Ctrl-C (SIGINT) or SIGTERM
// cancels it at the next round boundary, and -timeout bounds it with a
// deadline; -trace streams the deterministic per-round observer events to
// stderr.
//
// Usage:
//
//	detmis -graph powerlaw -n 4096 -deg 8 -eps 0.5 [-strategy auto] [-seed 1] [-v]
//	detmis -input graph.txt          # file: "n m" header then "u v" lines
//	detmis -graph gnm -n 100000 -timeout 500ms -trace
package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/solvecmd"
)

func main() {
	solvecmd.Main("detmis", "print the independent set", func(ctx context.Context, eng *repro.Engine, g *repro.Graph, opts ...repro.SolveOption) (solvecmd.Result, error) {
		res, err := eng.MaximalIndependentSetCtx(ctx, g, opts...)
		if err != nil {
			return solvecmd.Result{}, err
		}
		return solvecmd.Result{
			Summary: fmt.Sprintf("mis: %d nodes in %d iterations (strategy %s)", len(res.Nodes), res.Iterations, res.Strategy),
			Costs:   res.Costs,
			Verbose: func() {
				for _, v := range res.Nodes {
					fmt.Println(v)
				}
			},
		}, nil
	})
}
