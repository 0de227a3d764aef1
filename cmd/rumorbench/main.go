// Command rumorbench regenerates the evaluation figures of "Rule-Based
// Multi-Query Optimization" (EDBT 2009): Figures 9(a–d), 10(a–d) and
// 11(a,b). Each figure prints as a text table with one row per x position
// and the two series the paper plots.
//
// Usage:
//
//	rumorbench -fig all                 # every figure, default scale
//	rumorbench -fig 9a -maxq 100000     # paper-scale query sweep
//	rumorbench -fig 10c -rounds 5000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 9a..9d, 10a..10d, 11a, 11b, or all")
	tuples := flag.Int("tuples", 20000, "input events per S/T measurement")
	rounds := flag.Int("rounds", 2000, "workload-3 rounds per measurement")
	trace := flag.Int("trace", 240, "perfmon trace length in seconds (figure 11)")
	maxq := flag.Int("maxq", 10000, "cap for query-count sweeps (at least 1)")
	passes := flag.Int("passes", 3, "interleaved A/B passes per figure point (best kept)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	if *maxq < 1 {
		fmt.Fprintf(os.Stderr, "rumorbench: -maxq must be at least 1, got %d\n", *maxq)
		os.Exit(2)
	}
	cfg := bench.Config{
		Tuples:       *tuples,
		Rounds:       *rounds,
		TraceSeconds: *trace,
		MaxQueries:   *maxq,
		Passes:       *passes,
		Seed:         *seed,
	}

	if *fig == "all" {
		results, err := cfg.All()
		for _, r := range results {
			r.Fprint(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rumorbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := cfg.ByName(*fig)
	if !ok {
		fmt.Fprintf(os.Stderr, "rumorbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	r, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rumorbench:", err)
		os.Exit(1)
	}
	r.Fprint(os.Stdout)
}
