// Perfmon: the paper's motivating scenario (§4.1) — hybrid queries that
// smooth per-process CPU load with a sliding-window aggregate (relational
// engine functionality) and detect monotonically rising load with the µ
// pattern operator (event engine functionality). Runs n instances of
// Query 2 over a synthetic performance-counter trace and compares the
// channel-optimized plan with the plain plan; it exits non-zero if their
// alert counts differ.
//
//	go run ./examples/perfmon
package main

import (
	"fmt"
	"log"
	"time"

	rumor "repro"
	"repro/internal/workload"
)

func main() {
	const nQueries = 10
	const traceSeconds = 180
	trace := workload.D2(traceSeconds).Events()
	fmt.Printf("trace: %d processes, %d seconds, %d samples\n", 28, traceSeconds, len(trace))

	var alerts [2]int64
	for mode, channels := range []bool{false, true} {
		sys := rumor.New()
		if err := sys.DeclareStream("CPU", "", "pid", "load"); err != nil {
			log.Fatal(err)
		}
		// n instances of Query 2: identical smoothing and pattern, only
		// the starting condition differs per query.
		for i, q := range workload.DefaultHybrid(nQueries, 0.5).Queries() {
			if err := sys.AddQuery(fmt.Sprintf("ramp%d", i), q.Root); err != nil {
				log.Fatal(err)
			}
		}
		if err := sys.Optimize(rumor.Options{Channels: channels}); err != nil {
			log.Fatal(err)
		}
		info := sys.PlanInfo()

		start := time.Now()
		for _, ev := range trace {
			if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				log.Fatal(err)
			}
		}
		elapsed := time.Since(start)

		alerts[mode] = sys.TotalResults()
		label := "without channels"
		if channels {
			label = "with channels   "
		}
		fmt.Printf("%s: %2d m-ops (%3d operators, %d channels) — %7.0f events/s, %d ramp alerts\n",
			label, info.MOps, info.Operators, info.Channels,
			float64(len(trace))/elapsed.Seconds(), alerts[mode])
	}
	if alerts[0] != alerts[1] {
		log.Fatalf("MISMATCH: %d ramp alerts without channels vs %d with", alerts[0], alerts[1])
	}
}
