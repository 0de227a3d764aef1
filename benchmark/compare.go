package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict of one workload × metric row of a comparison.
const (
	notJudged  = "reported only"
	unchanged  = "unchanged"
	regressed  = "REGRESSED"
	improved   = "improved"
	differs    = "DIFFERS" // A/A only: the same code must not differ either way
	unresolved = "unresolved"
)

// compareRow judges one metric of one workload: base and next are the two
// sides' summaries. A side whose own quartile spread exceeds the bound
// cannot resolve a difference of the size of the bound, so the row is
// unresolved, not unchanged.
func compareRow(base, next stat, higher bool, bound float64, judge judgement, sameCode bool) (ratio float64, verdict string) {
	if base.Median != 0 {
		ratio = next.Median / base.Median
	}
	switch judge {
	case reportOnly:
		return ratio, notJudged
	case anyIncrease:
		if next.Median > base.Median {
			return ratio, regressed
		}
		return ratio, unchanged
	}
	worse := (next.Median - base.Median) / math.Abs(base.Median)
	if higher {
		worse = -worse
	}
	switch {
	case base.spread() > bound || next.spread() > bound:
		return ratio, unresolved
	case sameCode && math.Abs(worse) > bound:
		return ratio, differs
	case worse > bound:
		return ratio, regressed
	case worse < -bound:
		return ratio, improved
	}
	return ratio, unchanged
}

// compareLedgers prints one row per workload × end-to-end metric, every
// ratio with its base, and returns whether any row regressed (or, for the
// same code, differs).
func compareLedgers(base, next *ledger, sameCode bool) bool {
	byName := make(map[string]*result)
	for _, r := range next.Workloads {
		byName[r.Workload] = r
	}
	fmt.Printf("%-12s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	bad := false
	for _, b := range base.Workloads {
		n := byName[b.Workload]
		if n == nil || b.Unresolved != "" || n.Unresolved != "" {
			fmt.Printf("%-12s %-24s %s\n", b.Workload, "*", unresolved+": not run on both sides")
			continue
		}
		for _, m := range endToEnd {
			ratio, v := compareRow(b.Metrics[m.name], n.Metrics[m.name], m.higher, m.bound, m.judge, sameCode)
			fmt.Printf("%-12s %-24s %14.6g %14.6g %8.4f %6.2f  %s\n",
				b.Workload, m.name, b.Metrics[m.name].Median, n.Metrics[m.name].Median, ratio, m.bound, v)
			bad = bad || v == regressed || v == differs
		}
	}
	return bad
}

// runAA runs the whole set twice in one process, the second time in
// reverse order, and holds the two to the bounds: what the same code
// cannot repeat, a later change cannot be judged by.
func runAA(seed int64, seconds float64, sc scale, scaleName string) int {
	a, okA := runAll(seed, seconds, false, sc, scaleName, false)
	b, okB := runAll(seed, seconds, false, sc, scaleName, true)
	bad := compareLedgers(a, b, true)
	if bad || !okA || !okB {
		fmt.Println("A/A: FAILED")
		return 1
	}
	fmt.Println("A/A: passed")
	return 0
}

func readLedger(path string) *ledger {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	// A saved output is the table followed by the JSON summary, or the
	// summary alone (-out): take the document from its first brace.
	for i, c := range b {
		if c == '{' && (i == 0 || b[i-1] == '\n') {
			b = b[i:]
			break
		}
	}
	led := new(ledger)
	if err := json.Unmarshal(b, led); err != nil {
		fatal("%s: %v", path, err)
	}
	return led
}

// diffFiles applies the bounds to two saved outputs.
func diffFiles(oldPath, newPath string) int {
	base, next := readLedger(oldPath), readLedger(newPath)
	if base.Seed != next.Seed || base.Seconds != next.Seconds || base.Scale != next.Scale {
		fmt.Printf("warning: the two runs differ in seed, seconds or scale (%d/%g/%s vs %d/%g/%s)\n",
			base.Seed, base.Seconds, base.Scale, next.Seed, next.Seconds, next.Scale)
	}
	if compareLedgers(base, next, false) {
		return 1
	}
	return 0
}
