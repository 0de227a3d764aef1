package bench

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// tinyConfig keeps unit-test runs fast.
func tinyConfig() Config {
	return Config{Tuples: 600, Rounds: 60, TraceSeconds: 40, MaxQueries: 100, Seed: 1}
}

func TestAllFiguresRun(t *testing.T) {
	cfg := tinyConfig()
	results, err := cfg.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d figures, want 10", len(results))
	}
	for _, r := range results {
		if len(r.Points) == 0 {
			t.Fatalf("figure %s has no points", r.Figure)
		}
		for _, p := range r.Points {
			if p.A <= 0 || p.B <= 0 {
				t.Fatalf("figure %s point %s has non-positive throughput: %v %v",
					r.Figure, p.X, p.A, p.B)
			}
		}
		var sb strings.Builder
		r.Fprint(&sb)
		if !strings.Contains(sb.String(), r.Figure) {
			t.Fatalf("printout missing figure id: %s", sb.String())
		}
	}
}

func TestNormalizedSeriesPeakAtOne(t *testing.T) {
	cfg := tinyConfig()
	r, err := cfg.Fig9a()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Normalized {
		t.Fatal("figure 9(a) must be normalized")
	}
	var maxA, maxB float64
	for _, p := range r.Points {
		if p.A > maxA {
			maxA = p.A
		}
		if p.B > maxB {
			maxB = p.B
		}
		if p.A > 1.0001 || p.B > 1.0001 {
			t.Fatalf("normalized value above 1: %v", p)
		}
	}
	if maxA < 0.999 || maxB < 0.999 {
		t.Fatalf("normalized series must peak at 1: %v %v", maxA, maxB)
	}
}

func TestChannelBeatsPlainOnW3(t *testing.T) {
	// Figure 10(c)'s claim at a modest size: the channel plan sustains
	// higher throughput than the plain plan once enough queries share.
	cfg := tinyConfig()
	cfg.MaxQueries = 100
	cfg.Rounds = 150
	r, err := cfg.Fig10c()
	if err != nil {
		t.Fatal(err)
	}
	last := r.Points[len(r.Points)-1]
	if last.A <= last.B {
		t.Fatalf("with-channel (%.0f) should beat without-channel (%.0f) at %s queries",
			last.A, last.B, last.X)
	}
}

func TestByName(t *testing.T) {
	cfg := tinyConfig()
	f, ok := cfg.ByName("9a")
	if !ok || f == nil {
		t.Fatal("ByName(9a) failed")
	}
	if _, ok := cfg.ByName("nope"); ok {
		t.Fatal("unknown figure must not resolve")
	}
}

// A figure with no queries to run is an error, not a panic: the query cap
// is checked before any plan is built, and a push the engine rejects
// surfaces through throughput.
func TestZeroQueryCapIsAnError(t *testing.T) {
	if _, err := (Config{MaxQueries: 0}).Fig9a(); err == nil {
		t.Fatal("Fig9a with MaxQueries 0 returned no error")
	}
	p := workload.DefaultParams()
	if _, err := rumorThroughput(p.Catalog(), nil, p.GenStreams(100), false); err == nil {
		t.Fatal("pushing into a zero-query plan returned no error")
	}
}

// figAllocsPerEvent builds the engine Figure 9(a) measures at the given
// query count through BuildRUMOR, feeds it the figure's event sequence,
// and returns heap allocations per event after a warm-up tenth, with
// metrics enabled or disabled. It keeps the lowest of three passes, each
// on a fresh engine: the runtime can start an OS thread when the world
// restarts after ReadMemStats, and its few heap objects land in the
// window by chance. The collector is off while a pass counts, since each
// collection empties the tuple sync.Pool at a timing-dependent point.
func figAllocsPerEvent(t *testing.T, queries int, enabled bool) float64 {
	t.Helper()
	p := workload.DefaultParams()
	p.Seed = 1
	p.NumQueries = queries
	cqs, err := workload.ToRUMOR(p.Workload1())
	if err != nil {
		t.Fatal(err)
	}
	events := p.GenStreams(4000)
	warm := len(events) / 10
	prev := obs.Enabled()
	obs.Enable(enabled)
	defer obs.Enable(prev)
	pass := func() float64 {
		e, err := BuildRUMOR(p.Catalog(), cqs, false)
		if err != nil {
			t.Fatal(err)
		}
		push := func(evs []workload.Event) {
			for _, ev := range evs {
				if err := e.Push(ev.Source, ev.Tuple); err != nil {
					t.Fatal(err)
				}
			}
		}
		push(events[:warm])
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		push(events[warm:])
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(events)-warm)
	}
	return min(pass(), pass(), pass())
}

// The figures are measured with metrics off. The engine the figure
// harness builds must malloc exactly as often with metrics on, so a run
// with telemetry enabled still measures the same hot path.
func TestObsOverheadAllocIdentical(t *testing.T) {
	off, on := figAllocsPerEvent(t, 50, false), figAllocsPerEvent(t, 50, true)
	if on != off {
		t.Fatalf("allocs/event differ with metrics enabled: off=%.6f on=%.6f", off, on)
	}
	if off == 0 {
		t.Fatal("measured zero allocations per event; the pass measured nothing")
	}
}

// The same holds at every query count of Figure 9(a)'s sweep at test
// scale.
func TestObsSweepRuns(t *testing.T) {
	cfg := tinyConfig()
	sweep := cfg.capSweep([]int{1, 10, 100, 1000, 10000, 100000})
	if len(sweep) == 0 {
		t.Fatal("test-scale sweep has no query counts")
	}
	for _, queries := range sweep {
		if off, on := figAllocsPerEvent(t, queries, false), figAllocsPerEvent(t, queries, true); on != off {
			t.Errorf("queries=%d: allocs/event differ: off=%.6f on=%.6f", queries, off, on)
		}
	}
}
