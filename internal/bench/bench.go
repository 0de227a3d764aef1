// Package bench regenerates the paper's evaluation (§5): every series of
// Figures 9, 10 and 11. Absolute numbers depend on the host; the paper's
// claims are about trends, which is why Figures 9 and 10(a,b) report
// normalized throughput (each system divided by its own maximum) and
// Figures 10(c,d) and 11 report absolute events/second.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/automaton"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rules"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Config scales the experiments. The rumorbench flag defaults keep a full
// run of all ten figures in the range of a few minutes on a laptop; the
// paper's exact sweep end-points (100 000 queries, 100 000+ tuples) can be
// requested through the same flags.
type Config struct {
	Tuples       int // input events per S/T measurement (paper: ≥100 000)
	Rounds       int // Workload 3 rounds per measurement
	TraceSeconds int // perfmon trace length for Figure 11
	MaxQueries   int // cap applied to query-count sweeps
	Passes       int // interleaved A/B passes per point, best kept (≤1: single pass)
	Seed         int64
}

// Point is one x position of a figure with its two series values.
type Point struct {
	X string
	A float64
	B float64
}

// Result is one regenerated figure.
type Result struct {
	Figure     string
	Title      string
	XLabel     string
	ALabel     string
	BLabel     string
	Normalized bool
	Points     []Point
}

// normalize divides each series by its own maximum (the SASE-style
// normalization the paper adopts, §5.2).
func (r *Result) normalize() {
	var maxA, maxB float64
	for _, p := range r.Points {
		if p.A > maxA {
			maxA = p.A
		}
		if p.B > maxB {
			maxB = p.B
		}
	}
	for i := range r.Points {
		if maxA > 0 {
			r.Points[i].A /= maxA
		}
		if maxB > 0 {
			r.Points[i].B /= maxB
		}
	}
	r.Normalized = true
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure %s — %s\n", r.Figure, r.Title)
	unit := "events/s"
	if r.Normalized {
		unit = "normalized"
	}
	fmt.Fprintf(w, "%-16s %14s %14s   (%s)\n", r.XLabel, r.ALabel, r.BLabel, unit)
	for _, p := range r.Points {
		if r.Normalized {
			fmt.Fprintf(w, "%-16s %14.3f %14.3f\n", p.X, p.A, p.B)
		} else {
			fmt.Fprintf(w, "%-16s %14.0f %14.0f\n", p.X, p.A, p.B)
		}
	}
	fmt.Fprintln(w, strings.Repeat("-", 50))
}

// ---------------------------------------------------------------------------
// Measurement primitives
// ---------------------------------------------------------------------------

// throughput returns events/second for feeding n items of perItem events
// each through feed, after a warm-up over the first tenth of the items
// (the paper's JIT warm-up analogue; here it also fills operator state
// toward steady state).
func throughput(n, perItem int, feed func(i int) error) (float64, error) {
	warm := n / 10
	for i := 0; i < warm; i++ {
		if err := feed(i); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := warm; i < n; i++ {
		if err := feed(i); err != nil {
			return 0, err
		}
	}
	elapsed := max(time.Since(start), time.Nanosecond)
	return float64((n-warm)*perItem) / elapsed.Seconds(), nil
}

// BuildRUMOR plans, optimizes, and lowers a RUMOR engine for the queries.
func BuildRUMOR(catalog map[string]core.SourceDecl, qs []*core.Query, channels bool) (*engine.Engine, error) {
	plan := core.NewPhysical(catalog)
	for _, q := range qs {
		if err := plan.AddQuery(q); err != nil {
			return nil, err
		}
	}
	if err := rules.Optimize(plan, rules.Options{Channels: channels}); err != nil {
		return nil, err
	}
	return engine.New(plan)
}

// rumorThroughput measures a RUMOR plan over the events.
func rumorThroughput(catalog map[string]core.SourceDecl, qs []*core.Query, events []workload.Event, channels bool) (float64, error) {
	e, err := BuildRUMOR(catalog, qs, channels)
	if err != nil {
		return 0, err
	}
	return throughput(len(events), 1, func(i int) error {
		return e.Push(events[i].Source, events[i].Tuple)
	})
}

// cayugaThroughput measures the automaton baseline over the events.
func cayugaThroughput(p workload.Params, qs []*automaton.Query, events []workload.Event) (float64, error) {
	eng := automaton.NewEngine(p.Schemas())
	for _, q := range qs {
		if _, err := eng.AddQuery(q); err != nil {
			return 0, err
		}
	}
	return throughput(len(events), 1, func(i int) error {
		eng.Process(events[i].Source, events[i].Tuple)
		return nil
	})
}

// measureAB runs cfg.Passes interleaved A/B measurement passes — each pass
// builds both systems fresh, so the pair is measured back to back under the
// same machine conditions — and keeps the best pass per system. Keeping the
// maximum throughput (the minimum time) is the usual noise floor for short
// passes; a figure point is then reproducible to the noise of the best
// pass, not of an arbitrary one.
func (cfg Config) measureAB(fa, fb func() (float64, error)) (a, b float64, err error) {
	for i := 0; i < max(cfg.Passes, 1); i++ {
		pa, err := fa()
		if err != nil {
			return 0, 0, err
		}
		pb, err := fb()
		if err != nil {
			return 0, 0, err
		}
		a, b = max(a, pa), max(b, pb)
	}
	return a, b, nil
}

// capSweep truncates a query-count sweep at cfg.MaxQueries.
func (cfg Config) capSweep(sweep []int) []int {
	var out []int
	for _, n := range sweep {
		if n <= cfg.MaxQueries {
			out = append(out, n)
		}
	}
	return out
}

// w3Throughput measures Workload 3 (§5.2): the same logical content is fed
// either as one full-membership channel tuple per round (channel plan) or
// as k separate stream tuples (plain plan). Throughput counts logical
// events — k+1 per round — in both cases, since the generated stream
// content is identical by construction.
func w3Throughput(p workload.Params, k int, rounds int, channels bool) (float64, error) {
	e, err := BuildRUMOR(p.Workload3Catalog(k), p.Workload3(k), channels)
	if err != nil {
		return 0, err
	}
	events := p.Workload3Rounds(k, rounds)
	perRound := k + 1
	full := bitset.New(k)
	for i := 0; i < k; i++ {
		full.Set(i)
	}
	return throughput(len(events)/perRound, perRound, func(r int) error {
		round := events[r*perRound : (r+1)*perRound]
		if channels {
			t := &stream.Tuple{TS: round[0].Tuple.TS, Vals: round[0].Tuple.Vals, Member: full}
			if err := e.Push(round[0].Source, t); err != nil {
				return err
			}
		} else {
			for _, ev := range round[:k] {
				if err := e.Push(ev.Source, ev.Tuple); err != nil {
					return err
				}
			}
		}
		return e.Push(round[k].Source, round[k].Tuple)
	})
}
