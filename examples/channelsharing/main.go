// Channelsharing: the paper's Workload 3 (§5.2) — identical sequence
// queries over k sharable streams S1…Sk. With channels enabled, the
// optimizer encodes the Si into one channel and merges the ; operators
// into a single m-op that stores one instance per content tuple; without
// channels, every stream is processed separately. The demo feeds identical
// content both ways, prints the throughput gap (the paper reports roughly
// an order of magnitude, Figure 10(c)), and exits non-zero if the two
// plans' result counts differ.
//
//	go run ./examples/channelsharing
package main

import (
	"fmt"
	"log"
	"time"

	rumor "repro"
	"repro/internal/expr"
	"repro/internal/workload"
)

const (
	capacity = 10
	nQueries = 200
	rounds   = 5000
)

func build(channels bool) *rumor.System {
	sys := rumor.New()
	names := make([]string, capacity)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i+1)
		if err := sys.DeclareStream(names[i], "grp", "a0", "a1"); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.DeclareStream("T", "", "a0", "a1"); err != nil {
		log.Fatal(err)
	}
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	for i := 0; i < nQueries; i++ {
		left := rumor.Scan(names[i%capacity])
		root := rumor.Seq(pred, 1000, left, rumor.Scan("T"))
		if err := sys.AddQuery(fmt.Sprintf("q%d", i), root); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{Channels: channels}); err != nil {
		log.Fatal(err)
	}
	return sys
}

func main() {
	p := workload.DefaultParams()
	p.NumAttrs = 2
	events := p.Workload3Rounds(capacity, rounds)
	names := make([]string, capacity)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i+1)
	}

	var tps [2]float64
	var results [2]int64
	for mode, channels := range []bool{false, true} {
		sys := build(channels)
		info := sys.PlanInfo()
		start := time.Now()
		logical := 0
		for r := 0; r < rounds; r++ {
			base := r * (capacity + 1)
			if channels {
				// One channel tuple carries the shared content for all Si.
				ev := events[base]
				if err := sys.PushShared(names, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
					log.Fatal(err)
				}
			} else {
				for i := 0; i < capacity; i++ {
					ev := events[base+i]
					if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
						log.Fatal(err)
					}
				}
			}
			tev := events[base+capacity]
			if err := sys.Push("T", tev.Tuple.TS, tev.Tuple.Vals...); err != nil {
				log.Fatal(err)
			}
			logical += capacity + 1
		}
		elapsed := time.Since(start)
		tps[mode] = float64(logical) / elapsed.Seconds()
		results[mode] = sys.TotalResults()
		label := "without channel"
		if channels {
			label = "with channel   "
		}
		fmt.Printf("%s: %2d m-ops, %d channels — %9.0f events/s (%d results)\n",
			label, info.MOps, info.Channels, tps[mode], results[mode])
	}
	if results[0] != results[1] {
		log.Fatalf("MISMATCH: %d results without channel vs %d with", results[0], results[1])
	}
	fmt.Printf("speedup from channel sharing: %.1fx\n", tps[1]/tps[0])
}
