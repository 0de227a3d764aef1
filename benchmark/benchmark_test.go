package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// Same seed, same inputs, byte for byte; another seed, other inputs.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := w.gen(7, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.gen(7, smokeScale)
		c, _ := w.gen(8, smokeScale)
		if a.text != b.text || a.feed.hash != b.feed.hash {
			t.Errorf("%s: seed 7 gave two different inputs", w.name)
		}
		if a.text == c.text {
			t.Errorf("%s: seeds 7 and 8 gave the same query set", w.name)
		}
		if a.feed.hash == c.feed.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same feed", w.name)
		}
		if a.text == "" || a.feed.events != len(a.feed.ticks)*tickEvents {
			t.Errorf("%s: empty query text or a lap that is not whole ticks", w.name)
		}
	}
}

// The stratified draws give every seed the same values in another order.
func TestZipfDrawsAreAPermutation(t *testing.T) {
	a := zipfDraws(500, 1000, zipfS, rand.New(rand.NewSource(1)))
	b := zipfDraws(500, 1000, zipfS, rand.New(rand.NewSource(2)))
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("two seeds gave the same order")
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sorted draws differ at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 1 || a[i] > 1000 {
			t.Fatalf("draw %d out of domain", a[i])
		}
	}
	if a[len(a)-1] != 1000 || a[len(a)/2] < 990 {
		t.Errorf("large values should dominate: median %d, max %d", a[len(a)/2], a[len(a)-1])
	}
}

// percentile against a brute-force count over a sorted reference.
func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		s := sortedCopy(xs)
		for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
			got := percentile(s, p)
			atOrBelow, below := 0, 0
			for _, x := range s {
				if x <= got {
					atOrBelow++
				}
				if x < got {
					below++
				}
			}
			// Nearest rank: at least p% at or below, fewer than p% below.
			if float64(atOrBelow) < p/100*float64(n)-1e-9 || float64(below) >= p/100*float64(n) {
				t.Errorf("n=%d p=%g: %g has %d at or below and %d below", n, p, got, atOrBelow, below)
			}
		}
	}
}

// quartiles against values worked out by Python's
// statistics.quantiles(xs, n=4), whose method the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareRow(t *testing.T) {
	st := func(med, spread float64) stat {
		return stat{Median: med, Q1: med * (1 - spread/2), Q3: med * (1 + spread/2), N: 5}
	}
	cases := []struct {
		base, next stat
		higher     bool
		sameCode   bool
		want       string
	}{
		{st(100, 0.01), st(95, 0.01), true, false, unchanged},
		{st(100, 0.01), st(85, 0.01), true, false, regressed},
		{st(100, 0.01), st(115, 0.01), true, false, improved},
		{st(100, 0.01), st(115, 0.01), true, true, differs},
		{st(100, 0.01), st(115, 0.01), false, false, regressed},
		{st(100, 0.30), st(50, 0.01), true, false, unresolved},
	}
	for _, c := range cases {
		if _, got := compareRow(c.base, c.next, c.higher, 0.10, byBound, c.sameCode); got != c.want {
			t.Errorf("%v -> %v higher=%v same=%v: %s, want %s", c.base.Median, c.next.Median, c.higher, c.sameCode, got, c.want)
		}
	}
	if _, got := compareRow(stat{}, stat{Median: 0.001}, false, 0, anyIncrease, false); got != regressed {
		t.Errorf("failed_frac rising from 0: %s, want %s", got, regressed)
	}
	if _, got := compareRow(stat{Median: 1}, stat{Median: 9}, false, 0, reportOnly, false); got != notJudged {
		t.Errorf("a reported-only metric was judged: %s", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 10, End: 25},
	}}
	want := []int64{50, 15, 30, 15}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i+1, got, want[i])
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// The smoke scale runs every workload through every phase — set-up,
// oracle check, saturation, paced, then the traced run — in seconds, and
// what it emits must be what BENCHMARK.json declares: every named metric,
// for every workload, under its declared unit.
func TestSmokeRunMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	declared := make(map[string]bool)
	for _, m := range decl.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range endToEnd {
		if (m.judge == byBound) != declared[m.name] {
			t.Errorf("end-to-end metric %s: bounded in the program %v, declared in BENCHMARK.json %v", m.name, m.judge == byBound, declared[m.name])
		}
		delete(declared, m.name)
		for _, d := range decl.EndToEnd {
			if d.Name == m.name && (d.Bound != m.bound || (d.Better == "higher") != m.higher) {
				t.Errorf("end-to-end metric %s: bound %g better %s in BENCHMARK.json, bound %g higher=%v in the program", m.name, d.Bound, d.Better, m.bound, m.higher)
			}
		}
	}
	for name := range declared {
		t.Errorf("BENCHMARK.json declares %s, the program does not know it", name)
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(decl.PerLayer), len(perLayer))
	}

	// The traced run writes its spans under benchmark/out of the working
	// directory; give it a scratch one.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()

	start := time.Now()
	var pair [2]*result
	for i, dw := range decl.Workloads {
		w := findWorkload(dw.Name)
		if w == nil || w != workloads[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, the program has %q", i, dw.Name, workloads[i].name)
		}
		if !name.MatchString(dw.Name) || len(dw.Why) == 0 || len(dw.Why) > 200 {
			t.Errorf("workload %q: bad name or why", dw.Name)
		}
		res, err := runWorkload(w, 1, 0.2, smokeScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Unresolved != "" {
			t.Logf("%s: %s", w.name, res.Unresolved)
			continue
		}
		// The latency limit is about the system, not about a loaded test
		// host: only wrong results fail the smoke run.
		for _, n := range res.Notes {
			t.Errorf("%s: %s", w.name, n)
		}
		for _, m := range decl.EndToEnd {
			s, ok := res.Metrics[m.Name]
			if !ok || s.Unit != m.Unit || s.N == 0 {
				t.Errorf("%s: end-to-end metric %s [%s] not emitted (got %+v)", w.name, m.Name, m.Unit, s)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("metric %s [%s]: bad name or unit", m.Name, m.Unit)
			}
		}
		if _, ok := res.Metrics["failed_frac"]; !ok {
			t.Errorf("%s: failed_frac not emitted", w.name)
		}
		tr, err := traceWorkload(w, 1, 0.2, smokeScale)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, m := range decl.PerLayer {
			s, ok := tr.PerLayer[m.Name]
			if !ok || s.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s [%s] not emitted (got %+v)", w.name, m.Name, m.Unit, s)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("metric %s [%s]: bad name or unit", m.Name, m.Unit)
			}
		}
		if len(tr.PerLayer) != len(decl.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", w.name, len(tr.PerLayer), len(decl.PerLayer))
		}
		if _, err := os.Stat("benchmark/out/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		switch w.name {
		case "w2_sharded2":
			pair[0] = res
		case "w2_cluster2":
			pair[1] = res
		}
	}
	if pair[0] != nil && pair[1] != nil {
		for q, n := range pair[0].counts {
			if pair[1].counts[q] != n {
				t.Errorf("query %s: %d results sharded, %d over the cluster", q, n, pair[1].counts[q])
			}
		}
	}
	t.Logf("smoke scale, six workloads, both runs: %.1fs", time.Since(start).Seconds())
}
