package main

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/stream"
)

// sink is the result callback of the checksummed workloads. It folds
// every result of a verified query into an order-independent sum and
// counts the rest (w1_churn's live-added queries, named live_*). It is
// deliberately cheap: its cost is charged to the program under test.
type sink struct {
	sum  uint64
	n    int64
	live int64
}

// foldResult hashes one (query, ts, vals) result; sums of it do not
// depend on the order results arrive in.
func foldResult(query string, ts int64, vals []int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(query); i++ {
		h = (h ^ uint64(query[i])) * 1099511628211
	}
	h = (h ^ uint64(ts)) * 0x9E3779B97F4A7C15
	for _, v := range vals {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

func (s *sink) onResult(query string, ts int64, vals []int64) {
	if query[0] == 'l' {
		s.live++
		return
	}
	s.sum += foldResult(query, ts, vals)
	s.n++
}

// expected is what an oracle says the first ticks of lap 0 produce.
type expected struct {
	counts map[string]int64
	sink   sink
}

// oracleFor runs the workload's independent reference over the first
// ticks of lap 0, row by row in feed order: the Cayuga automaton engine
// for the W1/W2 query sets, the un-optimized one-operator-per-node plan
// for the CQL set.
func oracleFor(in *inputs, ticks int) (*expected, error) {
	exp := &expected{counts: make(map[string]int64)}
	names := make(map[int]string) // the oracle's query ID → name
	onResult := func(id int, t *stream.Tuple) { exp.sink.onResult(names[id], t.TS, t.Vals) }
	var process func(src string, t *stream.Tuple) error
	var count func(id int) int64
	if in.cql == "" {
		eng := automaton.NewEngine(map[string]*stream.Schema{
			"S": stream.MustSchema("S", attrNames()...),
			"T": stream.MustSchema("T", attrNames()...),
		})
		for _, q := range in.auto {
			id, err := eng.AddQuery(q)
			if err != nil {
				return nil, err
			}
			names[id] = q.Name
		}
		eng.OnResult = onResult
		process = func(src string, t *stream.Tuple) error { eng.Process(src, t); return nil }
		count = eng.ResultCount
	} else {
		script, err := cql.Parse(in.cql)
		if err != nil {
			return nil, err
		}
		plan := core.NewPhysical(script.Catalog)
		for _, q := range script.Queries {
			if err := plan.AddQuery(q); err != nil {
				return nil, err
			}
			names[q.ID] = q.Name
		}
		eng, err := engine.New(plan)
		if err != nil {
			return nil, err
		}
		eng.OnResult = onResult
		process, count = eng.Push, eng.ResultCount
	}
	for ti := 0; ti < ticks; ti++ {
		for side := range in.feed.ticks[ti] {
			cb := &in.feed.ticks[ti][side]
			for r, row := range cb.rows {
				t := &stream.Tuple{TS: cb.ts[r], Vals: append([]int64(nil), row...)}
				if err := process(cb.src, t); err != nil {
					return nil, err
				}
			}
		}
	}
	for id, name := range names {
		exp.counts[name] = count(id)
	}
	return exp, nil
}

// verify compares what the deployment produced over the verified ticks
// with the oracle: per-query counts always, the checksum where the
// workload has a callback. It returns the number of checks made and the
// mismatches, each described.
func verify(d *deployment, got *sink, exp *expected) (checked, failed int, notes []string) {
	for name, want := range exp.counts {
		checked++
		if have := d.count(name); have != want {
			failed++
			if len(notes) < 5 {
				notes = append(notes, fmt.Sprintf("query %s: %d results, oracle %d", name, have, want))
			}
		}
	}
	if got != nil {
		checked++
		if got.sum != exp.sink.sum || got.n != exp.sink.n {
			failed++
			notes = append(notes, fmt.Sprintf("checksum %016x over %d results, oracle %016x over %d",
				got.sum, got.n, exp.sink.sum, exp.sink.n))
		}
	}
	return checked, failed, notes
}
