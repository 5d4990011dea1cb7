// Command atomicstore-bench regenerates the paper's evaluation: every
// figure and analytical table (DESIGN.md §5), plus the ablations and the
// async validation of the real implementation. Output is the plain-text
// tables embedded in EXPERIMENTS.md. Performance of the real stack is
// the repository benchmark's job (go run ./benchmark).
//
// Usage:
//
//	atomicstore-bench            # run everything
//	atomicstore-bench -fig fig3a # run one experiment
//	atomicstore-bench -list      # list experiment ids
//	atomicstore-bench -async     # include the (slower) async validation
//	atomicstore-bench -scenarios # run the canonical fault-injection
//	                             # scenario library through the checker
//	                             # (-scenario <name> for one, -scenario-seed
//	                             # to replay a failure, -scenario-out for
//	                             # dump artifacts)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "atomicstore-bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig       = flag.String("fig", "", "run a single experiment by id (see -list)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		async     = flag.Bool("async", false, "also run the async validation on the real implementation")
		duration  = flag.Duration("async-duration", 2*time.Second, "measurement window per async data point")
		scenarios = flag.Bool("scenarios", false, "run the canonical fault-injection scenario library against the real server stack")
		scenName  = flag.String("scenario", "", "run a single canonical scenario by name (implies -scenarios)")
		scenSeed  = flag.Int64("scenario-seed", 0, "override the scripted seed (use the seed from a failure dump to replay it)")
		scenOut   = flag.String("scenario-out", "", "directory for replay dumps of failed scenarios")
	)
	flag.Parse()

	if *scenarios || *scenName != "" {
		return runScenarios(*scenName, *scenSeed, *scenOut)
	}

	experiments := bench.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-10s %s\n", "async", "async validation (with -async)")
		return nil
	}

	matched := false
	for _, e := range experiments {
		if *fig != "" && e.ID != *fig {
			continue
		}
		matched = true
		printExperiment(e)
	}

	if *async || *fig == "async" {
		matched = true
		ctx := context.Background()
		counts := []int{2, 4, 8}
		reads, err := bench.AsyncReadScaling(ctx, counts, 2, *duration)
		if err != nil {
			return err
		}
		printExperiment(reads)
		writes, err := bench.AsyncWriteThroughput(ctx, counts, 2, *duration)
		if err != nil {
			return err
		}
		printExperiment(writes)
	}

	if !matched {
		return fmt.Errorf("unknown experiment %q (try -list)", *fig)
	}
	return nil
}

// printExperiment renders one experiment.
func printExperiment(e bench.Experiment) {
	fmt.Printf("== %s — %s ==\n\n", e.ID, e.Title)
	fmt.Println(e.Table.String())
	if e.Notes != "" {
		fmt.Printf("note: %s\n", e.Notes)
	}
	fmt.Println()
}
