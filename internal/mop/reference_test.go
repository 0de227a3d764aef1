package mop_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

// This file checks every operator against an independent brute-force
// reference evaluator on random inputs. Unlike the naive-vs-optimized
// equivalence tests (which compare two engine configurations), the
// reference here re-derives the expected outputs from the paper's operator
// definitions directly, so a semantic bug shared by all engine paths is
// still caught.

type refEvent struct {
	src string
	t   *stream.Tuple
}

func randFeed(r *rand.Rand, n, domain int) []refEvent {
	feed := make([]refEvent, n)
	for i := range feed {
		src := "S"
		if i%2 == 1 {
			src = "T"
		}
		feed[i] = refEvent{
			src: src,
			t:   stream.NewTuple(int64(i), int64(r.Intn(domain)), int64(r.Intn(domain))),
		}
	}
	return feed
}

// runSingle runs one query through plan + engine and returns sorted result
// keys.
func runSingle(t *testing.T, root *core.Logical, feed []refEvent) []string {
	t.Helper()
	got, _ := runMany(t, []*core.Logical{root}, feed)
	return got[0]
}

// --- sliding-window aggregate reference --------------------------------

func refAgg(feed []refEvent, fn core.AggFn, attr int, window int64, groupBy []int) []string {
	var out []string
	var hist []*stream.Tuple
	for _, ev := range feed {
		if ev.src != "S" {
			continue
		}
		hist = append(hist, ev.t)
		gk := func(t *stream.Tuple) string {
			k := ""
			for _, g := range groupBy {
				k += fmt.Sprintf("%d|", t.Vals[g])
			}
			return k
		}
		// Aggregate over the in-window tuples of this tuple's group.
		var vals []int64
		for _, h := range hist {
			if window > 0 && ev.t.TS-h.TS >= window {
				continue
			}
			if gk(h) != gk(ev.t) {
				continue
			}
			vals = append(vals, h.Vals[attr])
		}
		var v int64
		switch fn {
		case core.AggSum:
			for _, x := range vals {
				v += x
			}
		case core.AggCount:
			v = int64(len(vals))
		case core.AggAvg:
			var s int64
			for _, x := range vals {
				s += x
			}
			v = s / int64(len(vals))
		case core.AggMin:
			v = vals[0]
			for _, x := range vals {
				if x < v {
					v = x
				}
			}
		case core.AggMax:
			v = vals[0]
			for _, x := range vals {
				if x > v {
					v = x
				}
			}
		}
		res := &stream.Tuple{TS: ev.t.TS}
		for _, g := range groupBy {
			res.Vals = append(res.Vals, ev.t.Vals[g])
		}
		res.Vals = append(res.Vals, v)
		out = append(out, res.ContentKey())
	}
	sort.Strings(out)
	return out
}

// aggFamilyCase checks k window variants of one aggregate — same function,
// attribute and group-by, windows w[i] % 17 for i < k (duplicates allowed;
// 0 is unbounded) — registered together and optimized with channels on, each
// against refAgg. With gated set, variant i reads FILTER(b != i%2, S): two
// selections over S, which channelize encodes into one channel when two
// variants over different selections have the same window. Every variant
// then reads that channel, so the family runs in channel mode (cα), with
// as many windows as the variants have.
func aggFamilyCase(t *testing.T, seed int64, fnRaw, attrRaw, kRaw uint8, w [4]uint8, grouped, gated bool) error {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	fn := core.AggFn(int(fnRaw) % 5)
	attr := int(attrRaw) % 2
	k := int(kRaw)%4 + 1
	var gb []int
	if grouped {
		gb = []int{1 - attr}
	}
	feed := randFeed(r, 80, 5)
	roots := make([]*core.Logical, k)
	wants := make([][]string, k)
	for i := range roots {
		window := int64(w[i]) % 17
		in, ref := core.Scan("S"), feed
		if gated {
			pred := expr.ConstCmp{Attr: 1, Op: expr.Ne, C: int64(i % 2)}
			in = core.SelectL(pred, in)
			ref = nil
			for _, ev := range feed {
				if ev.src != "S" || pred.Eval(ev.t) {
					ref = append(ref, ev)
				}
			}
		}
		roots[i] = core.AggL(fn, attr, window, gb, in)
		wants[i] = refAgg(ref, fn, attr, window, gb)
	}
	gots, p := runMany(t, roots, feed)
	if gated && sharedWindow(w[:k]) && p.Stats().Channels == 0 {
		return fmt.Errorf("gated variants planned without a channel:\n%s", p.String())
	}
	for i := range roots {
		if err := sameResults(gots[i], wants[i]); err != nil {
			return fmt.Errorf("%s(a%d) window %d of %v, by %v, gated %v: %w",
				fn, attr, int64(w[i])%17, w[:k], gb, gated, err)
		}
	}
	return nil
}

// sharedWindow reports whether two variants over different selections have
// the same window: they then share one aggregate m-op, so their inputs are
// channel encoded.
func sharedWindow(w []uint8) bool {
	for i := range w {
		for j := i + 1; j < len(w); j++ {
			if w[i]%17 == w[j]%17 && i%2 != j%2 {
				return true
			}
		}
	}
	return false
}

// runMany registers every root as its own query, optimizes with channels
// on, runs the feed and returns each query's sorted result keys.
func runMany(t *testing.T, roots []*core.Logical, feed []refEvent) ([][]string, *core.Physical) {
	t.Helper()
	p := core.NewPhysical(catalog())
	for i, root := range roots {
		if err := p.AddQuery(core.NewQuery(fmt.Sprintf("q%d", i), root)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]string, len(roots))
	e.OnResult = func(qid int, tu *stream.Tuple) { got[qid] = append(got[qid], tu.ContentKey()) }
	for _, ev := range feed {
		if err := e.Push(ev.src, ev.t); err != nil {
			continue // a source no query scans has no edge
		}
	}
	for i := range got {
		sort.Strings(got[i])
	}
	return got, p
}

func sameResults(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("result %d: got %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

func TestAggAgainstReference(t *testing.T) {
	f := func(seed int64, fnRaw, attrRaw, kRaw uint8, w [4]uint8, grouped, gated bool) bool {
		if err := aggFamilyCase(t, seed, fnRaw, attrRaw, kRaw, w, grouped, gated); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	// Every function, with and without BY, plain and gated, over a window
	// set with a duplicate and an unbounded variant.
	for fn := uint8(0); fn < 5; fn++ {
		for _, grouped := range []bool{false, true} {
			for _, gated := range []bool{false, true} {
				if err := aggFamilyCase(t, int64(fn)+1, fn, 1, 3, [4]uint8{5, 0, 12, 5}, grouped, gated); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzAggFamily runs TestAggAgainstReference's body on fuzzed inputs:
//
//	go test -run=NONE -fuzz=FuzzAggFamily -fuzztime=15s ./internal/mop/
func FuzzAggFamily(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), uint8(3), uint8(5), uint8(0), uint8(12), uint8(5), true, false)
	f.Add(int64(2), uint8(3), uint8(0), uint8(2), uint8(3), uint8(9), uint8(0), uint8(0), false, true)
	f.Add(int64(3), uint8(4), uint8(1), uint8(1), uint8(16), uint8(16), uint8(1), uint8(2), true, true)
	f.Fuzz(func(t *testing.T, seed int64, fnRaw, attrRaw, kRaw, w0, w1, w2, w3 uint8, grouped, gated bool) {
		if err := aggFamilyCase(t, seed, fnRaw, attrRaw, kRaw, [4]uint8{w0, w1, w2, w3}, grouped, gated); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAggFamilyStateMove moves one group key's share of two aggregate
// families between engine replicas mid-stream, as the rebalancer does. The
// receiving replica already holds other keys of the families, so the moved
// entries merge into a live log whose windows have advanced. Every query's
// results across both replicas must equal one engine's over the whole feed.
func TestAggFamilyStateMove(t *testing.T) {
	build := func() (*engine.Engine, map[int][]string) {
		p := core.NewPhysical(catalog())
		for _, fn := range []core.AggFn{core.AggSum, core.AggMax} {
			for _, w := range []int64{3, 7, 12} {
				if err := p.AddQuery(core.NewQuery("q", core.AggL(fn, 1, w, []int{0}, core.Scan("S")))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rules.Optimize(p, rules.Options{}); err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int][]string{}
		e.OnResult = func(qid int, tu *stream.Tuple) { got[qid] = append(got[qid], tu.ContentKey()) }
		return e, got
	}
	ref, want := build()
	a, gotA := build()
	b, gotB := build()
	feed := randFeed(rand.New(rand.NewSource(4)), 160, 4)
	moved := false
	for i, ev := range feed {
		if ev.src != "S" {
			continue
		}
		if i == len(feed)/2 {
			ra, rb := a.StateRegistry(), b.StateRegistry()
			for _, g := range ra.Groups() {
				pl, err := ra.Export(g.OpID, 0, 0, func(key int64, _ int) bool { return key == 1 })
				if err != nil {
					t.Fatal(err)
				}
				if err := rb.Import(g.OpID, pl, false); err != nil {
					t.Fatal(err)
				}
			}
			moved = true
		}
		owner := a
		if key := ev.t.Vals[0]; key >= 2 || (key == 1 && moved) {
			owner = b
		}
		for _, e := range []*engine.Engine{ref, owner} {
			if err := e.Push("S", ev.t); err != nil {
				t.Fatal(err)
			}
		}
	}
	for qid, w := range want {
		got := append(append([]string(nil), gotA[qid]...), gotB[qid]...)
		sort.Strings(got)
		sort.Strings(w)
		if err := sameResults(got, w); err != nil {
			t.Fatalf("query %d across replicas: %v", qid, err)
		}
	}
}

// --- windowed join reference -------------------------------------------

// refJoin: a window <= 0 is unbounded.
func refJoin(feed []refEvent, window int64) []string {
	var out []string
	var ss, ts []*stream.Tuple
	for _, ev := range feed {
		if ev.src == "S" {
			ss = append(ss, ev.t)
			for _, o := range ts {
				if o.Vals[0] == ev.t.Vals[0] && (window <= 0 || ev.t.TS-o.TS <= window) {
					j := &stream.Tuple{TS: ev.t.TS}
					j.Vals = append(j.Vals, ev.t.Vals...)
					j.Vals = append(j.Vals, o.Vals...)
					out = append(out, j.ContentKey())
				}
			}
		} else {
			ts = append(ts, ev.t)
			for _, o := range ss {
				if o.Vals[0] == ev.t.Vals[0] && (window <= 0 || ev.t.TS-o.TS <= window) {
					j := &stream.Tuple{TS: ev.t.TS}
					j.Vals = append(j.Vals, o.Vals...)
					j.Vals = append(j.Vals, ev.t.Vals...)
					out = append(out, j.ContentKey())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func TestJoinAgainstReference(t *testing.T) {
	f := func(seed int64, winRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		window := int64(winRaw)%20 + 1
		feed := randFeed(r, 80, 4)
		pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
		got := runSingle(t, core.JoinL(pred, window, core.Scan("S"), core.Scan("T")), feed)
		want := refJoin(feed, window)
		return sameResults(got, want) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Cayuga ; reference --------------------------------------------------

// refSeq implements the paper's ; semantics (§5.2): an S tuple waits in
// state; the first matching T tuple within the window produces the
// concatenation and deletes the stored tuple. A window <= 0 is unbounded.
func refSeq(feed []refEvent, window int64, c1, c3 int64) []string {
	var out []string
	type entry struct {
		t    *stream.Tuple
		dead bool
	}
	var state []*entry
	for _, ev := range feed {
		if ev.src == "S" {
			if ev.t.Vals[0] == c1 {
				state = append(state, &entry{t: ev.t})
			}
			continue
		}
		if ev.t.Vals[0] != c3 {
			continue
		}
		for _, en := range state {
			if en.dead {
				continue
			}
			age := ev.t.TS - en.t.TS
			if window > 0 && age > window {
				en.dead = true // expired
				continue
			}
			j := &stream.Tuple{TS: ev.t.TS}
			j.Vals = append(j.Vals, en.t.Vals...)
			j.Vals = append(j.Vals, ev.t.Vals...)
			out = append(out, j.ContentKey())
			en.dead = true // Cayuga match-delete
		}
	}
	sort.Strings(out)
	return out
}

func TestSeqAgainstReference(t *testing.T) {
	f := func(seed int64, c1Raw, c3Raw, winRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c1 := int64(c1Raw) % 4
		c3 := int64(c3Raw) % 4
		window := int64(winRaw)%20 + 1
		feed := randFeed(r, 100, 4)
		sel := core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c1}, core.Scan("S"))
		pred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c3}})
		got := runSingle(t, core.SeqL(pred, window, sel, core.Scan("T")), feed)
		want := refSeq(feed, window, c1, c3)
		return sameResults(got, want) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Cayuga µ reference ---------------------------------------------------

// refMu implements the µ semantics over (start, last) instances: rebind on
// matching key with strictly increasing value (emitting each extension),
// keep on key mismatch, delete otherwise or on expiry. A window <= 0 is
// unbounded.
func refMu(feed []refEvent, window int64, startMax int64) []string {
	var out []string
	type instance struct {
		start *stream.Tuple
		last  *stream.Tuple
		dead  bool
	}
	var insts []*instance
	for _, ev := range feed {
		if ev.src == "S" {
			if ev.t.Vals[1] < startMax {
				insts = append(insts, &instance{start: ev.t, last: ev.t})
			}
			continue
		}
		for _, in := range insts {
			if in.dead {
				continue
			}
			if window > 0 && ev.t.TS-in.start.TS > window {
				in.dead = true
				continue
			}
			sameKey := in.last.Vals[0] == ev.t.Vals[0]
			rising := in.last.Vals[1] < ev.t.Vals[1]
			switch {
			case sameKey && rising:
				in.last = ev.t
				j := &stream.Tuple{TS: ev.t.TS}
				j.Vals = append(j.Vals, in.start.Vals...)
				j.Vals = append(j.Vals, ev.t.Vals...)
				out = append(out, j.ContentKey())
			case !sameKey:
				// filter edge: stays
			default:
				in.dead = true
			}
		}
	}
	sort.Strings(out)
	return out
}

func TestMuAgainstReference(t *testing.T) {
	f := func(seed int64, startRaw, winRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		startMax := int64(startRaw)%4 + 1
		window := int64(winRaw)%30 + 1
		feed := randFeed(r, 100, 4)
		sel := core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Lt, C: startMax}, core.Scan("S"))
		rebind := expr.NewAnd2(
			expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}, // last key == event key
			expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}, // last value < event value
		)
		filter := expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}}
		got := runSingle(t, core.MuL(rebind, filter, window, sel, core.Scan("T")), feed)
		want := refMu(feed, window, startMax)
		return sameResults(got, want) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
