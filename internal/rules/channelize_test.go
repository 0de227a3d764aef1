package rules_test

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

// joinCatalog has two groups of sharable sources (left Ls, right Rs).
func joinCatalog() map[string]core.SourceDecl {
	c := map[string]core.SourceDecl{}
	for i := 1; i <= 4; i++ {
		l := fmt.Sprintf("L%d", i)
		r := fmt.Sprintf("R%d", i)
		c[l] = core.SourceDecl{Schema: stream.MustSchema(l, "a", "b"), Label: "ls"}
		c[r] = core.SourceDecl{Schema: stream.MustSchema(r, "a", "b"), Label: "rs"}
	}
	return c
}

// TestJoinBothSidesChannelize: identical joins over sharable left AND
// right streams end with both inputs channel-encoded (full precision
// sharing join, [14]).
func TestJoinBothSidesChannelize(t *testing.T) {
	p := core.NewPhysical(joinCatalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	var qs []*core.Query
	for i := 1; i <= 3; i++ {
		q := core.NewQuery(fmt.Sprintf("q%d", i),
			core.JoinL(pred, 100, core.Scan(fmt.Sprintf("L%d", i)), core.Scan(fmt.Sprintf("R%d", i))))
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Channels; got != 2 {
		t.Fatalf("channels = %d, want 2 (both join sides)\n%s", got, p.String())
	}
	nJoin := 0
	for _, n := range p.Nodes {
		if n.Kind == core.KindJoin {
			nJoin++
		}
	}
	if nJoin != 1 {
		t.Fatalf("join nodes = %d, want 1", nJoin)
	}
	// A left tuple for streams {0,2} joined with a right tuple for {1,2}:
	// only query 2 (index 2) sees the pair.
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Push("L1", withMember(stream.NewTuple(0, 5, 0), bitset.FromIndices(0, 2)))
	e.Push("R1", withMember(stream.NewTuple(1, 5, 0), bitset.FromIndices(1, 2)))
	want := []int64{0, 0, 1}
	for i, q := range qs {
		if e.ResultCount(q.ID) != want[i] {
			t.Fatalf("query %d count = %d, want %d", i, e.ResultCount(q.ID), want[i])
		}
	}
}

// TestChannelMinStreamsGate: a channel encodes at least two streams; one
// sequence over one stream stays on its own edge.
func TestChannelMinStreamsGate(t *testing.T) {
	build := func(streams int) core.Stats {
		p := core.NewPhysical(joinCatalog())
		pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
		for i := 1; i <= streams; i++ {
			q := core.NewQuery(fmt.Sprintf("q%d", i),
				core.SeqL(pred, 100, core.Scan(fmt.Sprintf("L%d", i)), core.Scan("R1")))
			if err := p.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		return p.Stats()
	}
	for _, c := range []struct{ streams, channels int }{{1, 0}, {2, 1}, {3, 1}} {
		if got := build(c.streams).Channels; got != c.channels {
			t.Fatalf("%d streams: channels = %d, want %d", c.streams, got, c.channels)
		}
	}
}

// TestJoinBothSidesEquivalence feeds identical logical content through
// naive and fully channelized join plans.
func TestJoinBothSidesEquivalence(t *testing.T) {
	feed := func(e *engine.Engine) {
		ts := int64(0)
		for round := 0; round < 40; round++ {
			for i := 1; i <= 3; i++ {
				e.Push(fmt.Sprintf("L%d", i), stream.NewTuple(ts, int64(round%5), int64(i)))
			}
			ts++
			for i := 1; i <= 3; i++ {
				e.Push(fmt.Sprintf("R%d", i), stream.NewTuple(ts, int64(round%5), int64(10+i)))
			}
			ts++
		}
	}
	run := func(channels bool) []int64 {
		p := core.NewPhysical(joinCatalog())
		pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
		var qs []*core.Query
		for i := 1; i <= 3; i++ {
			q := core.NewQuery(fmt.Sprintf("q%d", i),
				core.JoinL(pred, 7, core.Scan(fmt.Sprintf("L%d", i)), core.Scan(fmt.Sprintf("R%d", i))))
			if err := p.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		if channels {
			if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
				t.Fatal(err)
			}
		}
		e, err := engine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		feed(e)
		out := make([]int64, len(qs))
		for i, q := range qs {
			out[i] = e.ResultCount(q.ID)
		}
		return out
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: naive %d vs channelized %d results", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("query %d produced no results; feed too sparse", i)
		}
	}
}

// TestQueryOutputOnChannelEdge: when a stream that is itself a query
// output gets encoded into a channel (because identical downstream
// consumers channelized it), the engine must gate sink delivery by
// membership.
func TestQueryOutputOnChannelEdge(t *testing.T) {
	p := core.NewPhysical(joinCatalog())
	pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	var filterQs, seqQs []*core.Query
	for i := 1; i <= 3; i++ {
		// The σ output is both a query output and the left input of a
		// channelizable ; operator.
		sel := core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Gt, C: int64(10 * i)}, core.Scan(fmt.Sprintf("L%d", i)))
		fq := core.NewQuery(fmt.Sprintf("f%d", i), sel)
		if err := p.AddQuery(fq); err != nil {
			t.Fatal(err)
		}
		filterQs = append(filterQs, fq)
		sq := core.NewQuery(fmt.Sprintf("s%d", i), core.SeqL(pred, 100, sel, core.Scan("R1")))
		if err := p.AddQuery(sq); err != nil {
			t.Fatal(err)
		}
		seqQs = append(seqQs, sq)
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Value 25 passes σ thresholds 10 and 20, not 30.
	for i := 1; i <= 3; i++ {
		e.Push(fmt.Sprintf("L%d", i), stream.NewTuple(0, 7, 25))
	}
	e.Push("R1", stream.NewTuple(1, 7, 0))
	wantF := []int64{1, 1, 0}
	wantS := []int64{1, 1, 0}
	for i := range filterQs {
		if e.ResultCount(filterQs[i].ID) != wantF[i] {
			t.Fatalf("filter query %d count = %d, want %d\n%s",
				i, e.ResultCount(filterQs[i].ID), wantF[i], p.String())
		}
		if e.ResultCount(seqQs[i].ID) != wantS[i] {
			t.Fatalf("seq query %d count = %d, want %d", i, e.ResultCount(seqQs[i].ID), wantS[i])
		}
	}
}
