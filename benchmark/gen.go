package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/expr"
)

// Table 3 of the paper: 10 integer attributes per stream, constant and
// window domains of 1000, Zipf 1.5 (the same values as
// workload.DefaultParams). They are repeated here, with the generators
// below, so that the inputs are pinned by this directory alone: the
// program under test receives only queries and events.
const (
	numAttrs     = 10
	constDomain  = 1000
	windowDomain = 1000
	zipfS        = 1.5

	// tickEvents is one feed window: 256 S rows then 256 T rows, each
	// pushed as one batch. It is the unit of the paced phase.
	tickEvents = 512
	tickRows   = tickEvents / 2
)

// scale sizes a run. Every number that shapes the inputs is here, so the
// smoke scale used by the tests differs from the full one in nothing else.
type scale struct {
	lapEvents  int // events per lap, a multiple of tickEvents
	relLap     int // rel_cql's lap: its events cost ~100x a Workload 1 event
	w1Queries  int
	w2Queries  int
	relPerKind int // rel_cql registers this many of each of its 3 shapes
	churnBase  int
	livePool   int // distinct live queries w1_churn cycles through
	w2Verify   int // ticks of lap 0 the W2 pair checks against the oracle
	setupReps  int // at most this many fresh builds, fewer once setupFor is spent
	satReps    int
	pacedReps  int
}

var fullScale = scale{
	lapEvents: 131072, relLap: 8192, w1Queries: 1000, w2Queries: 1000, relPerKind: 120,
	churnBase: 250, livePool: 1024, w2Verify: 64,
	setupReps: 60, satReps: 20, pacedReps: 10,
}

var smokeScale = scale{
	lapEvents: 4096, relLap: 2048, w1Queries: 100, w2Queries: 40, relPerKind: 8,
	churnBase: 50, livePool: 64, w2Verify: 8,
	setupReps: 1, satReps: 1, pacedReps: 1,
}

// zipfDraws returns n values from {1..domain} with P(rank k) ∝ 1/k^s, rank
// 1 being the largest value: the paper's convention that long windows and
// large constants are the likely ones. The draws are stratified: the
// values are the distribution's quantiles at (i+½)/n, and only their order
// depends on the generator. Every seed therefore gives a query set with
// the same mix of constants and windows, assigned to different queries,
// and a difference between two runs measures the program, not the draw.
func zipfDraws(n, domain int, s float64, rng *rand.Rand) []int {
	cdf := make([]float64, domain)
	sum := 0.0
	for k := 1; k <= domain; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	out := make([]int, n)
	for i := range out {
		u := (float64(i) + 0.5) / float64(n) * sum
		rank := sort.SearchFloat64s(cdf, u) + 1
		if rank > domain {
			rank = domain
		}
		out[i] = domain - rank + 1
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// colBatch is one PushColumns call of the feed: up to tickRows rows of
// one source, column-major. rows holds the same values row-major for the
// per-row entry point.
type colBatch struct {
	src  string
	ts   []int64
	cols [][]int64
	rows [][]int64
}

// tick is one feed window: the S batch, then the T batch.
type tick [2]colBatch

// feed is one lap. Later laps replay it with a timestamp offset of
// events per lap, so timestamps keep rising per source for ever.
type feed struct {
	events int
	ticks  []tick
	hash   uint64
}

// genFeed makes a lap of the §5.1 stream: S and T tuples in equal number,
// every attribute uniform in [0, constDomain). The paper alternates S and
// T event by event; here they alternate block by block — a tick's S rows
// carry its first tickRows timestamps and its T rows the rest — so that
// batches arrive in non-decreasing timestamp order across sources, which
// is the order the push entry points are specified for.
func genFeed(seed int64, lapEvents int) *feed {
	rng := rand.New(rand.NewSource(seed + 7))
	f := &feed{events: lapEvents, ticks: make([]tick, lapEvents/tickEvents)}
	h := uint64(14695981039346656037) // FNV-1a over the values, 64 bits at a time
	for ti := range f.ticks {
		for side, src := range []string{"S", "T"} {
			cb := &f.ticks[ti][side]
			cb.src = src
			cb.ts = make([]int64, tickRows)
			cb.cols = make([][]int64, numAttrs)
			colBacking := make([]int64, numAttrs*tickRows)
			for a := range cb.cols {
				cb.cols[a] = colBacking[a*tickRows : (a+1)*tickRows : (a+1)*tickRows]
			}
			cb.rows = make([][]int64, tickRows)
			rowBacking := make([]int64, numAttrs*tickRows)
			for r := range cb.rows {
				cb.rows[r] = rowBacking[r*numAttrs : (r+1)*numAttrs : (r+1)*numAttrs]
				cb.ts[r] = int64(ti*tickEvents + side*tickRows + r)
				for a := 0; a < numAttrs; a++ {
					v := int64(rng.Intn(constDomain))
					cb.cols[a][r] = v
					cb.rows[r][a] = v
					h = (h ^ uint64(v)) * 1099511628211
				}
			}
		}
	}
	f.hash = h
	return f
}

// namedQuery is one registered query as the embedder hands it over.
type namedQuery struct {
	name string
	root *core.Logical
}

// inputs is everything a workload gives the program under test, plus the
// automata the oracle runs.
type inputs struct {
	feed    *feed
	auto    []*automaton.Query // W1/W2 query set (nil for rel_cql)
	queries []namedQuery       // the same set as logical trees
	cql     string             // rel_cql's script
	live    []namedQuery       // w1_churn's pool of live-added queries
	text    string             // canonical rendering, for determinism checks
}

func attrNames() []string {
	names := make([]string, numAttrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	return names
}

// w1Queries draws n Workload 1 queries σ[S.a0=c1](S) ;[T.a0=c3, age≤w] T
// named prefix_i.
func w1Queries(prefix string, n int, rng *rand.Rand, text *strings.Builder) []*automaton.Query {
	c1 := zipfDraws(n, constDomain, zipfS, rng)
	c3 := zipfDraws(n, constDomain, zipfS, rng)
	w := zipfDraws(n, windowDomain, zipfS, rng)
	qs := make([]*automaton.Query, n)
	for i := range qs {
		name := fmt.Sprintf("%s_%d", prefix, i)
		fmt.Fprintf(text, "%s: S.a0=%d ; T.a0=%d within %d\n", name, c1[i]-1, c3[i]-1, w[i])
		qs[i] = &automaton.Query{
			Name: name,
			Stages: []automaton.Stage{
				{Kind: automaton.StageStart, Input: "S",
					StartPred: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(c1[i] - 1)}},
				{Kind: automaton.StageSeq, Input: "T", Window: int64(w[i]),
					Pred: expr.NewAnd2(expr.Right{P: expr.ConstCmp{Attr: 0, Op: expr.Eq, C: int64(c3[i] - 1)}})},
			},
		}
	}
	return qs
}

func toLogical(qs []*automaton.Query) ([]namedQuery, error) {
	out := make([]namedQuery, len(qs))
	for i, q := range qs {
		l, err := q.ToLogical()
		if err != nil {
			return nil, err
		}
		out[i] = namedQuery{q.Name, l}
	}
	return out, nil
}

// genW1 makes n base queries named w1_i and, for the churn workload, a
// pool of further queries named live_i.
func genW1(seed int64, n, pool int, lapEvents int) (*inputs, error) {
	var text strings.Builder
	rng := rand.New(rand.NewSource(seed + 11))
	in := &inputs{feed: genFeed(seed, lapEvents)}
	in.auto = w1Queries("w1", n, rng, &text)
	var err error
	if in.queries, err = toLogical(in.auto); err != nil {
		return nil, err
	}
	if in.live, err = toLogical(w1Queries("live", pool, rng, &text)); err != nil {
		return nil, err
	}
	in.text = text.String()
	return in, nil
}

// genW2 makes n Workload 2 sequence queries S ;[S.a0=T.a0, age≤w] T.
func genW2(seed int64, n, lapEvents int) (*inputs, error) {
	var text strings.Builder
	windows := zipfDraws(n, windowDomain, zipfS, rand.New(rand.NewSource(seed+17)))
	in := &inputs{feed: genFeed(seed, lapEvents)}
	for i, w := range windows {
		name := fmt.Sprintf("w2_%d", i)
		fmt.Fprintf(&text, "%s: S ; T on S.a0=T.a0 within %d\n", name, w)
		in.auto = append(in.auto, &automaton.Query{
			Name: name,
			Stages: []automaton.Stage{
				{Kind: automaton.StageStart, Input: "S"},
				{Kind: automaton.StageSeq, Input: "T", Window: int64(w),
					Pred: expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}},
			},
		})
	}
	var err error
	if in.queries, err = toLogical(in.auto); err != nil {
		return nil, err
	}
	in.text = text.String()
	return in, nil
}

// genRel writes the relational script: n filter+project, n aggregate and
// n join queries over S and T. The equality constant and the windows are
// Zipf draws; the residual bound r is a mirrored draw, so it is mostly
// small and a1 > r keeps most of the rows the index lets through.
func genRel(seed int64, n, lapEvents int) *inputs {
	rng := rand.New(rand.NewSource(seed + 19))
	consts := zipfDraws(n, constDomain, zipfS, rng)
	bounds := zipfDraws(n, constDomain, zipfS, rng)
	aggWin := zipfDraws(n, windowDomain, zipfS, rng)
	joinWin := zipfDraws(n, windowDomain, zipfS, rng)
	var b strings.Builder
	attrs := strings.Join(attrNames(), ", ")
	fmt.Fprintf(&b, "CREATE STREAM S(%s);\nCREATE STREAM T(%s);\n", attrs, attrs)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY flt_%d := PROJECT(a0, a1 FROM FILTER(a0 = %d AND a1 > %d, S));\n",
			i, consts[i]-1, constDomain-bounds[i])
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY agg_%d := AGG(avg(a1) OVER %d BY a0 FROM S);\n", i, aggWin[i])
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "QUERY join_%d := JOIN(S, T ON LEFT.a0 = EVENT.a0 WINDOW %d);\n", i, joinWin[i])
	}
	return &inputs{feed: genFeed(seed, lapEvents), cql: b.String(), text: b.String()}
}
