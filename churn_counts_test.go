package rumor_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rumor "repro"
)

// testdata/churn_counts.golden pins every query's result count after a
// seeded 500-operation add/remove script interleaved with pushes, over
// Workload 1, Workload 2 (;) and Workload 2 (µ), with channels off and on:
// the survivors, the transients still registered, and the frozen final
// counts of every query removed along the way. Live maintenance (plan
// deltas, route patching, m-op splicing and state migration) must
// reproduce it byte for byte. Regenerate only for an intended change of
// the results themselves:
//
//	go test . -run ChurnCounts -update
func TestChurnCountsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 500 live operations on six configurations")
	}
	var b strings.Builder
	for _, wl := range []string{"w1", "w2", "w2mu"} {
		for _, channels := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/channels=%v", wl, channels), func(t *testing.T) {
				sys := rumor.New()
				names := churnCountScript(t, sys, wl, channels)
				writeCounts(&b, fmt.Sprintf("%s/churn500 channels=%v", wl, channels), sys, names)
			})
		}
	}
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "churn_counts.golden")
	if *updateCounts {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("churn counts differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("churn counts differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// churnCountScript registers 40 base queries of workload wl, then runs
// 500 seeded operations: before each, a slice of the feed is pushed (row
// by row and as column windows, alternately); then a pool query is added
// live, or a random registered query (base or transient) is removed. It
// returns every name ever registered, in registration order.
func churnCountScript(t *testing.T, sys countSys, wl string, channels bool) []string {
	t.Helper()
	const ops = 500
	catalog, base, events := churnWorkload(t, wl, 40, ops*12, 11)
	_, pool, _ := churnWorkload(t, wl, 60, 0, 12)
	setUp(t, sys, catalog, base, channels)
	names := queryNames(base)
	active := append([]string(nil), names...)
	rng := rand.New(rand.NewSource(13))
	step := len(events) / ops
	for op := 0; op < ops; op++ {
		chunk := events[op*step : (op+1)*step]
		if op%2 == 0 {
			pushWindows(t, sys, chunk, 4)
		} else {
			for _, ev := range chunk {
				if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(active) == 0 || rng.Intn(2) == 0 {
			name := fmt.Sprintf("live_%d", op)
			if err := sys.AddQueryLive(name, pool[rng.Intn(len(pool))].Root); err != nil {
				t.Fatalf("op %d: add %s: %v", op, name, err)
			}
			active = append(active, name)
			names = append(names, name)
			continue
		}
		i := rng.Intn(len(active))
		if err := sys.RemoveQuery(active[i]); err != nil {
			t.Fatalf("op %d: remove %s: %v", op, active[i], err)
		}
		active = append(active[:i], active[i+1:]...)
	}
	if sys.TotalResults() == 0 {
		t.Fatal("the script produced no results; the golden would be vacuous")
	}
	return names
}
