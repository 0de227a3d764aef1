package mop_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

// This file checks window-prefix emission: the operators of a ;, µ or ⨝
// group differ only in their window, so a match reaches exactly the
// operators whose window covers its age. Each group is run with and
// without a result callback, against the reference evaluators.

// prefixFeed draws n events in same-source runs of 1 to 8 rows, so blocks
// carry several rows; timestamps strictly increase.
func prefixFeed(r *rand.Rand, n, domain int) []refEvent {
	feed := make([]refEvent, 0, n)
	for len(feed) < n {
		src := "S"
		if r.Intn(2) == 1 {
			src = "T"
		}
		for run := 1 + r.Intn(8); run > 0 && len(feed) < n; run-- {
			ts := int64(len(feed))
			feed = append(feed, refEvent{src: src, t: stream.NewTuple(ts, int64(r.Intn(domain)), int64(r.Intn(domain)))})
		}
	}
	return feed
}

// pushRuns feeds the events through PushColumns, one call per same-source
// run of at most size rows.
func pushRuns(t *testing.T, e *engine.Engine, feed []refEvent, size int) {
	t.Helper()
	for i := 0; i < len(feed); {
		j := i
		for j < len(feed) && j-i < size && feed[j].src == feed[i].src {
			j++
		}
		ts := make([]int64, 0, j-i)
		cols := [][]int64{make([]int64, 0, j-i), make([]int64, 0, j-i)}
		for _, ev := range feed[i:j] {
			ts = append(ts, ev.t.TS)
			cols[0] = append(cols[0], ev.t.Vals[0])
			cols[1] = append(cols[1], ev.t.Vals[1])
		}
		if err := e.PushColumns(feed[i].src, ts, cols); err != nil {
			t.Fatal(err)
		}
		i = j
	}
}

// windowPrefixCase registers n window variants each of one ; query, one µ
// query and one ⨝ query over S and T (window wins[i] % 24, 0 unbounded,
// duplicates allowed), optimizes without channels and runs the feed, in
// PushColumns calls of at most size rows, on two engines: one counting
// only, one delivering every result to a callback. Both must agree with
// the reference per query, and on what every m-op emitted.
func windowPrefixCase(t *testing.T, seed int64, nRaw uint8, wins []byte, c1Raw, c3Raw, startRaw uint8, size int) error {
	t.Helper()
	if len(wins) == 0 {
		wins = []byte{0}
	}
	n := int(nRaw)%64 + 1
	c1, c3 := int64(c1Raw)%4, int64(c3Raw)%4
	startMax := int64(startRaw)%4 + 1
	feed := prefixFeed(rand.New(rand.NewSource(seed)), 160, 4)

	seqSel := core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c1}, core.Scan("S"))
	seqPred := expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c3}})
	muSel := core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Lt, C: startMax}, core.Scan("S"))
	rebind := expr.NewAnd2(
		expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}, // last key == event key
		expr.AttrCmp2{L: 3, Op: expr.Lt, R: 1}, // last value < event value
	)
	filter := expr.Not2{P: expr.AttrCmp2{L: 2, Op: expr.Eq, R: 0}}
	joinPred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}

	var roots []*core.Logical
	var wants [][]string
	for i := 0; i < n; i++ {
		w := int64(wins[i%len(wins)]) % 24
		roots = append(roots,
			core.SeqL(seqPred, w, seqSel, core.Scan("T")),
			core.MuL(rebind, filter, w, muSel, core.Scan("T")),
			core.JoinL(joinPred, w, core.Scan("S"), core.Scan("T")))
		wants = append(wants, refSeq(feed, w, c1, c3), refMu(feed, w, startMax), refJoin(feed, w))
	}
	p := core.NewPhysical(catalog())
	for i, root := range roots {
		if err := p.AddQuery(core.NewQuery(fmt.Sprintf("q%d", i), root)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{}); err != nil {
		t.Fatal(err)
	}
	newEngine := func() *engine.Engine {
		e, err := engine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	counted, called := newEngine(), newEngine()
	got := make([][]string, len(roots))
	called.OnResult = func(qid int, tu *stream.Tuple) { got[qid] = append(got[qid], tu.ContentKey()) }
	pushRuns(t, counted, feed, size)
	pushRuns(t, called, feed, size)

	for i, q := range p.Queries {
		sort.Strings(got[q.ID])
		kind := [...]string{";", "µ", "⨝"}[i%3]
		w := int64(wins[(i/3)%len(wins)]) % 24
		if err := sameResults(got[q.ID], wants[i]); err != nil {
			return fmt.Errorf("%s window %d of %d variants, callback: %w", kind, w, n, err)
		}
		if c, want := counted.ResultCount(q.ID), int64(len(wants[i])); c != want {
			return fmt.Errorf("%s window %d of %d variants: counted %d results, want %d", kind, w, n, c, want)
		}
	}
	cs, ds := counted.NodeStats(), called.NodeStats()
	for i := range cs {
		if cs[i].Emitted != ds[i].Emitted {
			return fmt.Errorf("node %d emitted %d counting, %d with a callback", cs[i].NodeID, cs[i].Emitted, ds[i].Emitted)
		}
	}
	return nil
}

func TestWindowPrefixAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		wins := make([]byte, 1+r.Intn(64))
		r.Read(wins)
		for _, size := range []int{1, 256} {
			if err := windowPrefixCase(t, int64(i), uint8(r.Intn(256)), wins, uint8(i), uint8(i/4), uint8(i/2), size); err != nil {
				t.Fatalf("case %d, call size %d: %v", i, size, err)
			}
		}
	}
}

// FuzzWindowPrefix runs windowPrefixCase on fuzzed window sets, at call
// size 1 and 256:
//
//	go test -run=NONE -fuzz=FuzzWindowPrefix -fuzztime=15s ./internal/mop/
func FuzzWindowPrefix(f *testing.F) {
	f.Add(int64(1), uint8(63), []byte{5, 0, 12, 5, 23, 1, 7}, uint8(1), uint8(1), uint8(2))
	f.Add(int64(2), uint8(0), []byte{0}, uint8(0), uint8(3), uint8(3))
	f.Add(int64(3), uint8(49), []byte{3, 3, 3, 9, 9, 0, 0, 17}, uint8(2), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, wins []byte, c1, c3, start uint8) {
		for _, size := range []int{1, 256} {
			if err := windowPrefixCase(t, seed, nRaw, wins, c1, c3, start, size); err != nil {
				t.Fatalf("call size %d: %v", size, err)
			}
		}
	})
}
