// Package solvecmd is the command body detmm and detmis share: their
// flags, the input (a synthetic workload or an edge-list file), signal and
// deadline handling, the -trace observer, the solve on an Engine and the
// report with its MPC cost line. A command supplies only its problem:
// the solve, its result line and what -v prints.
package solvecmd

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/graph"
)

// Result is what a command reports of one solve.
type Result struct {
	// Summary is the result line printed after the graph line.
	Summary string
	// Costs is the solve's cost report.
	Costs *repro.CostReport
	// Verbose prints the output itself, one item per line, under -v.
	Verbose func()
}

// Solve runs a command's problem on g through eng.
type Solve func(ctx context.Context, eng *repro.Engine, g *repro.Graph, opts ...repro.SolveOption) (Result, error)

// traceObserver streams round events to stderr; the stream is deterministic
// (same input and options ⇒ same lines) at any -par setting.
type traceObserver struct{}

func (traceObserver) OnRound(ev repro.RoundEvent) {
	fmt.Fprintf(os.Stderr, "round %d [%s/%s]: live %d nodes / %d edges, %d seeds tried (found=%v), selected %d\n",
		ev.Round, ev.Algorithm, ev.Strategy, ev.LiveNodes, ev.LiveEdges, ev.SeedsTried, ev.SeedFound, ev.Selected)
}

// Main parses the command line, solves with solve and prints the report.
// name is the command's log prefix and verbose the help text of its -v
// flag. It exits 1 on any error, a canceled solve included.
func Main(name, verbose string, solve Solve) {
	var (
		family   = flag.String("graph", "gnm", "workload family (gnm, gnp, powerlaw, regular, grid, star, tree, ...)")
		input    = flag.String("input", "", "edge-list file to load instead of generating")
		n        = flag.Int("n", 4096, "number of nodes")
		deg      = flag.Int("deg", 8, "average degree")
		eps      = flag.Float64("eps", 0.5, "space exponent ε (S = n^ε)")
		strategy = flag.String("strategy", "auto", "auto | sparsify | lowdeg")
		seed     = flag.Uint64("seed", 1, "workload generator seed")
		par      = flag.Int("par", 0, "host workers (0 = one per CPU, 1 = serial); results are identical at any setting")
		timeout  = flag.Duration("timeout", 0, "abandon the solve after this duration (0 = no deadline)")
		trace    = flag.Bool("trace", false, "stream per-round observer events to stderr")
		printAll = flag.Bool("v", false, verbose)
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix(name + ": ")

	// Signal-driven cancellation: the first SIGINT/SIGTERM cancels the solve
	// context (the engine abandons the solve at the next round boundary);
	// a second signal kills the process via the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var g *repro.Graph
	var err error
	if *input != "" {
		f, ferr := os.Open(*input)
		if ferr != nil {
			log.Fatal(ferr)
		}
		g, err = graph.ReadEdgeList(f)
		f.Close()
		*family = *input
	} else {
		g, err = repro.Generate(*family, *n, *deg, *seed)
	}
	if err != nil {
		log.Fatal(err)
	}

	eng := repro.NewEngine(&repro.Options{Epsilon: *eps, Parallelism: *par})
	solveOpts := []repro.SolveOption{repro.WithStrategy(repro.Strategy(*strategy))}
	if *trace {
		solveOpts = append(solveOpts, repro.WithObserver(traceObserver{}))
	}
	start := time.Now()
	res, err := solve(ctx, eng, g, solveOpts...)
	if err != nil {
		if errors.Is(err, repro.ErrCanceled) {
			log.Fatalf("solve abandoned after %v: %v", time.Since(start).Round(time.Millisecond), err)
		}
		log.Fatal(err)
	}

	fmt.Printf("graph: %s n=%d m=%d Δ=%d\n", *family, g.N(), g.M(), g.MaxDegree())
	fmt.Println(res.Summary)
	c := res.Costs
	fmt.Printf("mpc: %d rounds on %d machines of S=%d words (peak %d, %d seed batches)\n",
		c.Rounds, c.Machines, c.SpacePerMachine, c.PeakMachineWords, c.SeedBatches)
	for _, v := range c.Violations {
		fmt.Fprintf(os.Stderr, "space violation: %s\n", v)
	}
	if *printAll {
		res.Verbose()
	}
}
