// Package workload generates the paper's benchmark workloads (§5):
//
//   - the synthetic stream benchmark of Table 3 (10 integer attributes,
//     interleaved streams S and T, Zipfian constants and window lengths);
//   - Workload 1: σθ1(S) ;θ2∧θ3 T — exercises Cayuga's FR and AN indexes;
//   - Workload 2: S ;θ1∧θ2 T and S µθ1∧θ2,θ3 T — exercises the AI index;
//   - Workload 3: Si ;θ1∧θ2 T over sharable streams Si — exercises
//     channels (§4.4);
//   - the hybrid performance-monitoring workload of §5.3 over a synthetic
//     substitute for the Windows Performance Monitor traces D1/D2.
//
// All generators are deterministic for a given seed.
package workload

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/stream"
	"repro/internal/zipf"
)

// Params are the benchmark parameters with the defaults of Table 3.
type Params struct {
	NumQueries   int     // number of queries (default 1000)
	NumAttrs     int     // attributes per stream schema (default 10)
	ConstDomain  int     // constant domain size (default 1000)
	WindowDomain int     // window length domain size (default 1000)
	Zipf         float64 // Zipfian parameter (default 1.5)
	Seed         int64
}

// DefaultParams returns Table 3's default values.
func DefaultParams() Params {
	return Params{
		NumQueries:   1000,
		NumAttrs:     10,
		ConstDomain:  1000,
		WindowDomain: 1000,
		Zipf:         1.5,
		Seed:         1,
	}
}

// Schema returns the benchmark stream schema: NumAttrs integer attributes
// a0 … a(n-1) (the timestamp is implicit).
func (p Params) Schema(name string) *stream.Schema {
	attrs := make([]string, p.NumAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	return stream.MustSchema(name, attrs...)
}

// Catalog returns the source catalog for the S/T benchmark.
func (p Params) Catalog() map[string]core.SourceDecl {
	return map[string]core.SourceDecl{
		"S": {Schema: p.Schema("S")},
		"T": {Schema: p.Schema("T")},
	}
}

// Schemas returns the schema map used by the automaton engine.
func (p Params) Schemas() map[string]*stream.Schema {
	return map[string]*stream.Schema{
		"S": p.Schema("S"),
		"T": p.Schema("T"),
	}
}

// Event is one generated input event.
type Event struct {
	Source string
	Tuple  *stream.Tuple
}

// GenStreams generates n tuples with consecutive timestamps starting at 0,
// alternating between S (even timestamps) and T (odd timestamps), each
// attribute drawn uniformly from [0, ConstDomain) — the §5.1 procedure.
func (p Params) GenStreams(n int) []Event {
	g := zipf.New(p.ConstDomain, 0, p.Seed+7) // uniform sampler (s = 0)
	events := make([]Event, n)
	for ts := 0; ts < n; ts++ {
		vals := make([]int64, p.NumAttrs)
		for i := range vals {
			vals[i] = int64(g.Next0())
		}
		src := "S"
		if ts%2 == 1 {
			src = "T"
		}
		events[ts] = Event{Source: src, Tuple: &stream.Tuple{TS: int64(ts), Vals: vals}}
	}
	return events
}

// GenStreamsSkewed is GenStreams with a0 drawn from the workload's Zipf
// constant distribution instead of uniformly: the hot constants then
// dominate both instance creation (a Workload 1 selection σ(S.a0 = c1)
// fires mostly for hot c1) and probe traffic, concentrating operator state
// and routed tuples on the hot keys' shards — the skew scenario online
// rebalancing flattens.
//
//rumor:allow deadexport test instrument: skewed feeds for the rebalance tests
func (p Params) GenStreamsSkewed(n int) []Event {
	hot := zipf.New(p.ConstDomain, p.Zipf, p.Seed+31)
	g := zipf.New(p.ConstDomain, 0, p.Seed+7)
	events := make([]Event, n)
	for ts := 0; ts < n; ts++ {
		vals := make([]int64, p.NumAttrs)
		for i := range vals {
			vals[i] = int64(g.Next0())
		}
		vals[0] = int64(hot.Next0())
		src := "S"
		if ts%2 == 1 {
			src = "T"
		}
		events[ts] = Event{Source: src, Tuple: &stream.Tuple{TS: int64(ts), Vals: vals}}
	}
	return events
}

// Workload1 generates the §5.2 Workload 1 queries: σθ1(S) ;θ2∧θ3 T with
// θ1: S.a0 = c, θ3: T.a0 = c′ (Zipf-drawn constants) and θ2 the duration
// predicate (Zipf-drawn window). Returned as automata; translate with
// Query.ToLogical for the RUMOR side.
func (p Params) Workload1() []*automaton.Query {
	constGen := zipf.New(p.ConstDomain, p.Zipf, p.Seed+11)
	winGen := zipf.New(p.WindowDomain, p.Zipf, p.Seed+13)
	qs := make([]*automaton.Query, p.NumQueries)
	for i := range qs {
		c1 := int64(constGen.Next0())
		c3 := int64(constGen.Next0())
		w := int64(winGen.Next())
		qs[i] = &automaton.Query{
			Name: fmt.Sprintf("w1_%d", i),
			Stages: []automaton.Stage{
				{Kind: automaton.StageStart, Input: "S",
					StartPred: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c1}},
				{Kind: automaton.StageSeq, Input: "T", Window: w,
					Pred: expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: c3}})},
			},
		}
	}
	return qs
}

// Workload2Seq generates Workload 2's sequence queries S ;θ1∧θ2 T with
// θ1: S.a0 = T.a0 and Zipf-drawn windows (AI-index workload).
func (p Params) Workload2Seq() []*automaton.Query {
	winGen := zipf.New(p.WindowDomain, p.Zipf, p.Seed+17)
	qs := make([]*automaton.Query, p.NumQueries)
	for i := range qs {
		w := int64(winGen.Next())
		qs[i] = &automaton.Query{
			Name: fmt.Sprintf("w2_%d", i),
			Stages: []automaton.Stage{
				{Kind: automaton.StageStart, Input: "S"},
				{Kind: automaton.StageSeq, Input: "T", Window: w,
					Pred: expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}},
			},
		}
	}
	return qs
}

// Workload2Mu generates the µ variant S µθ1∧θ2,θ3 T: θ1: S.a0 = T.a0,
// rebind θ3: T.a1 > last.a1 (monotone a1 sequence), Zipf-drawn windows.
func (p Params) Workload2Mu() []*automaton.Query {
	winGen := zipf.New(p.WindowDomain, p.Zipf, p.Seed+19)
	qs := make([]*automaton.Query, p.NumQueries)
	for i := range qs {
		w := int64(winGen.Next())
		n := p.NumAttrs
		rebind := expr.NewAnd2(
			expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0},     // start.a0 = T.a0
			expr.AttrCmp2{L: n + 1, Op: expr.Lt, R: 1}, // last.a1 < T.a1
		)
		filter := expr.Not2{P: expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}}
		qs[i] = &automaton.Query{
			Name: fmt.Sprintf("w2mu_%d", i),
			Stages: []automaton.Stage{
				{Kind: automaton.StageStart, Input: "S"},
				{Kind: automaton.StageMu, Input: "T", Window: w, Pred: rebind, Filter: filter},
			},
		}
	}
	return qs
}

// ToRUMOR translates automaton queries into RUMOR core queries.
func ToRUMOR(qs []*automaton.Query) ([]*core.Query, error) {
	out := make([]*core.Query, len(qs))
	for i, q := range qs {
		l, err := q.ToLogical()
		if err != nil {
			return nil, err
		}
		out[i] = core.NewQuery(q.Name, l)
	}
	return out, nil
}

// Workload3Catalog returns the catalog for Workload 3: k sharable source
// streams S1…Sk plus T.
func (p Params) Workload3Catalog(k int) map[string]core.SourceDecl {
	cat := map[string]core.SourceDecl{
		"T": {Schema: p.Schema("T")},
	}
	for i := 1; i <= k; i++ {
		name := fmt.Sprintf("S%d", i)
		cat[name] = core.SourceDecl{Schema: p.Schema(name), Label: "w3"}
	}
	return cat
}

// Workload3 generates Workload 3 queries Si ;θ1∧θ2 T (identical
// definitions over k sharable streams, round-robin). θ1: Si.a0 = T.a0.
func (p Params) Workload3(k int) []*core.Query {
	winGen := zipf.New(p.WindowDomain, p.Zipf, p.Seed+23)
	qs := make([]*core.Query, p.NumQueries)
	for i := range qs {
		w := int64(winGen.Next())
		src := fmt.Sprintf("S%d", 1+i%k)
		pred := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
		qs[i] = core.NewQuery(fmt.Sprintf("w3_%d", i),
			core.SeqL(pred, w, core.Scan(src), core.Scan("T")))
	}
	return qs
}

// Workload3Rounds generates r rounds of Workload 3 input: per round, one
// content tuple shared by all k Si streams plus one T tuple (§5.2: "the
// first 10 tuples in every round have the same content"). The returned
// events carry no membership; the harness pushes them per stream (plain
// plans) or as one full-membership channel tuple (channel plans).
func (p Params) Workload3Rounds(k, r int) []Event {
	g := zipf.New(p.ConstDomain, 0, p.Seed+29)
	var events []Event
	ts := int64(0)
	for round := 0; round < r; round++ {
		shared := make([]int64, p.NumAttrs)
		for i := range shared {
			shared[i] = int64(g.Next0())
		}
		for i := 1; i <= k; i++ {
			events = append(events, Event{
				Source: fmt.Sprintf("S%d", i),
				Tuple:  &stream.Tuple{TS: ts, Vals: shared},
			})
			ts++
		}
		tvals := make([]int64, p.NumAttrs)
		for i := range tvals {
			tvals[i] = int64(g.Next0())
		}
		events = append(events, Event{Source: "T", Tuple: &stream.Tuple{TS: ts, Vals: tvals}})
		ts++
	}
	return events
}
