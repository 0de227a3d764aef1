// Package rumor is a Go implementation of RUMOR, the rule-based
// multi-query optimization (MQO) framework for data stream systems of
// Hong et al., "Rule-Based Multi-Query Optimization", EDBT 2009.
//
// RUMOR generalizes the three core abstractions of a stream engine:
// physical operators become m-ops (each implementing a set of operators),
// transformation rules become m-rules (which merge operator sets into
// m-ops), and streams become channels (stream unions whose tuples carry
// membership bit vectors). A single engine then evaluates CQL-style
// relational stream queries, Cayuga-style event pattern queries, and
// hybrid queries, sharing state and computation across all of them.
//
// The System type is the embedding API: declare streams, register
// continuous queries (via the query language or programmatically with the
// re-exported builders), optimize, and push tuples:
//
//	sys := rumor.New()
//	err := sys.ExecScript(`
//	    CREATE STREAM CPU(pid, load);
//	    LET smoothed := AGG(avg(load) OVER 60 BY pid FROM CPU);
//	    QUERY hot := FILTER(load > 90, @smoothed);
//	`)
//	sys.OnResult(func(q string, ts int64, vals []int64) { ... })
//	err = sys.Optimize(rumor.Options{Channels: true})
//	err = sys.Push("CPU", 0, 17, 95)
//
// Subpackages (internal): core (plans, m-ops as plan nodes, channels),
// rules (the m-rules and optimizer), mop (executable m-ops: predicate
// indexing, shared aggregation/join, the Cayuga ; and µ operators with
// FR/AN/AI indexes, channel modes), engine (execution), automaton (the
// Cayuga baseline and the §4.2 automaton→plan translation), cql (query
// language), workload and bench (the paper's evaluation).
package rumor

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/rules"
	"repro/internal/stream"
)

// Logical is a logical query plan node; build trees with Scan, Filter,
// Project, Agg, Join, Seq and Mu (re-exported from the core package).
type Logical = core.Logical

// Builders for programmatic query construction.
var (
	// Scan reads a declared source stream.
	Scan = core.Scan
	// Filter applies a selection predicate (package expr).
	Filter = core.SelectL
	// Project applies a schema map.
	Project = core.ProjectL
	// Agg applies a sliding-window aggregate.
	Agg = core.AggL
	// Join is a windowed two-stream join.
	Join = core.JoinL
	// Seq is the Cayuga sequence operator (;).
	Seq = core.SeqL
	// Mu is the Cayuga iteration operator (µ).
	Mu = core.MuL
)

// Aggregate functions for Agg.
const (
	Sum   = core.AggSum
	Count = core.AggCount
	Avg   = core.AggAvg
	Min   = core.AggMin
	Max   = core.AggMax
)

// Options configures optimization.
type Options struct {
	// Channels enables the channel-based m-rules (cσ, cα, c⨝, c;, cµ).
	Channels bool
	// ChannelMinStreams gates the channel rules: a candidate operator
	// group must cover at least this many distinct sharable streams
	// (0 = the default of 2). Larger values trade sharing for lower
	// membership overhead (§3.2).
	ChannelMinStreams int
}

// PlanInfo summarizes the optimized plan.
type PlanInfo struct {
	Queries   int // registered continuous queries
	MOps      int // m-op nodes (excluding sources)
	Operators int // operator instances implemented by the m-ops
	Channels  int // edges encoding more than one stream
	Streams   int // logical streams

	// LiveSlots / TotalSlots measure channel membership width: live
	// streams vs total encoded slots (including tombstones left by live
	// query removal), summed over the channel edges. Channel compaction
	// keeps LiveSlots ≥ TotalSlots/2 in steady state, so membership words
	// stay bounded under sustained add/remove churn.
	LiveSlots  int
	TotalSlots int

	// ChannelWords is the total membership words backing the channel
	// edges; SpilledChannels counts channels whose membership no longer
	// fits one inline word (each tuple on such a channel carries a heap
	// bitset — engine_member_spills_total counts the per-tuple cost).
	ChannelWords    int
	SpilledChannels int
	// MulticastKeys is the total number of distinct partner constants in
	// the multicast routing tables (sharded systems only; 0 otherwise).
	MulticastKeys int

	// BlockEdges counts plan edges statically capable of carrying
	// columnar blocks (produced by a source or selection, read only by
	// selections and ;/µ, membership fits one word); BlocksProcessed is
	// the number of blocks the engine has actually delivered along such
	// edges. It stays 0 when every push took the per-row path: Push,
	// PushShared, PushBatch under 4 rows, and any batch whose source
	// membership has spilled past one word.
	BlockEdges      int
	BlocksProcessed int64
}

// System is a RUMOR stream-processing instance.
type System struct {
	catalog map[string]core.SourceDecl
	queries []*core.Query
	byName  map[string]*core.Query

	plan *core.Physical
	eng  *engine.Engine

	// ropts preserves the optimization options for incremental (live)
	// rule application after Optimize.
	ropts rules.Options

	// removed maps names of live-removed queries to their frozen final
	// result counts.
	removed map[string]int64

	// churnLog, when set, receives one wire.ChurnRecord per successful
	// live maintenance operation (incremental checkpoint mode).
	churnLog io.Writer

	onResult func(query string, ts int64, vals []int64)
}

// New creates an empty system.
func New() *System {
	return &System{
		catalog: make(map[string]core.SourceDecl),
		byName:  make(map[string]*core.Query),
	}
}

// DeclareStream registers a source stream with the given attributes. A
// non-empty sharableLabel marks streams of the same label as sharable
// sources (§3.2 base case 2), making them candidates for channel encoding.
func (s *System) DeclareStream(name, sharableLabel string, attrs ...string) error {
	if _, dup := s.catalog[name]; dup {
		return fmt.Errorf("rumor: stream %q already declared", name)
	}
	sch, err := stream.NewSchema(name, attrs...)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	// Declaring after Optimize is allowed: the new stream enters the
	// running plan when an AddQueryLive first scans it.
	s.catalog[name] = core.SourceDecl{Schema: sch, Label: sharableLabel}
	return nil
}

// ExecScript parses a CQL script, merging its stream declarations and
// registering its queries.
func (s *System) ExecScript(src string) error {
	if s.plan != nil {
		return fmt.Errorf("rumor: cannot add queries after Optimize")
	}
	script, err := cql.Parse(src)
	if err != nil {
		return err
	}
	for name, decl := range script.Catalog {
		if _, dup := s.catalog[name]; dup {
			return fmt.Errorf("rumor: stream %q already declared", name)
		}
		s.catalog[name] = decl
	}
	for _, q := range script.Queries {
		if err := s.addQuery(q); err != nil {
			return err
		}
	}
	return nil
}

// AddQuery registers a programmatically built continuous query.
func (s *System) AddQuery(name string, root *Logical) error {
	if s.plan != nil {
		return fmt.Errorf("rumor: cannot add queries after Optimize")
	}
	return s.addQuery(core.NewQuery(name, root))
}

func (s *System) addQuery(q *core.Query) error {
	if _, dup := s.byName[q.Name]; dup {
		return fmt.Errorf("rumor: query %q already registered", q.Name)
	}
	s.queries = append(s.queries, q)
	s.byName[q.Name] = q
	return nil
}

// OnResult registers the result callback. Must be called before Optimize
// or at any time after; results are attributed by query name. vals is
// valid until the callback returns; copy it to keep it.
func (s *System) OnResult(fn func(query string, ts int64, vals []int64)) {
	s.onResult = fn
	if s.eng != nil {
		s.wireCallback()
	}
}

// buildPlan plans all registered queries and applies the m-rules.
func (s *System) buildPlan(opt Options) (*core.Physical, error) {
	if s.plan != nil {
		return nil, fmt.Errorf("rumor: already optimized")
	}
	if len(s.queries) == 0 {
		return nil, fmt.Errorf("rumor: no queries registered")
	}
	plan := core.NewPhysical(s.catalog)
	for _, q := range s.queries {
		if err := plan.AddQuery(q); err != nil {
			return nil, err
		}
	}
	ropts := rules.Options{Channels: opt.Channels, ChannelMinStreams: opt.ChannelMinStreams}
	if err := rules.Optimize(plan, ropts); err != nil {
		return nil, err
	}
	s.ropts = ropts
	return plan, nil
}

// Optimize plans all registered queries, applies the m-rules, and builds
// the execution engine. It must be called exactly once; afterwards the
// query set evolves through AddQueryLive and RemoveQuery (the §7 "future
// work" of the paper, implemented here as incremental plan maintenance).
func (s *System) Optimize(opt Options) error {
	plan, err := s.buildPlan(opt)
	if err != nil {
		return err
	}
	eng, err := engine.New(plan)
	if err != nil {
		return err
	}
	s.plan = plan
	s.eng = eng
	s.wireCallback()
	return nil
}

// AddQueryLive registers a continuous query on a running system: the
// query is planned naively into the live physical plan, the m-rules are
// re-applied incrementally (merging the new operators into the existing
// shared m-ops and growing channel memberships append-only), and the
// resulting delta is spliced into the engine's routing tables without
// touching the operator state of the running queries. Before Optimize it
// is equivalent to AddQuery.
//
// The new query starts from the shared state its merged operators expose:
// a query that collapses onto an identical running operator (CSE) adopts
// that operator's history outright; a query merged into a plain shared
// group observes the group's stored window; and a query merged into a
// channel-mode agg/join/seq group at a fresh membership position has the
// group's retained window replayed under its bit — the stored items are
// re-filtered through the query's gating selections, so a mid-stream
// subscriber over a single-source channel sees full-window results from
// its first batch (exactly the results a from-scratch plan retains,
// whenever the shared store's contents cover the new gating — e.g. the
// gating predicate is implied by a live member's). Channel growth reuses
// tombstoned membership slots before widening, so an add/remove/add cycle
// of the same query does not grow the membership words.
func (s *System) AddQueryLive(name string, root *Logical) error {
	if s.plan == nil {
		return s.AddQuery(name, root)
	}
	if _, dup := s.byName[name]; dup {
		return fmt.Errorf("rumor: query %q already registered", name)
	}
	start := time.Now()
	q := core.NewQuery(name, root)
	m := live.NewMaintainer(s.plan, s.ropts)
	d, err := m.AddQuery(q)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	if err := live.Apply(d, s.eng); err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	s.queries = append(s.queries, q)
	s.byName[name] = q
	delete(s.removed, name)
	s.wireCallback()
	noteLiveAdd(name, d, time.Since(start))
	return s.logChurnAdd(name, root, d)
}

// RemoveQuery unsubscribes a continuous query. On a running system the
// operators serving only this query are garbage-collected (reference
// counts of shared operators drop; channel membership positions are
// tombstoned; exclusively owned window and instance state is discarded),
// and the engine's routing tables are updated in place. Channels whose
// tombstones come to dominate are compacted in the same step: dead
// positions are dropped and the memberships stored inside the running
// m-ops are rewritten through the position remap, keeping membership
// words bounded under sustained churn (live/total slots ≥ 1/2). The
// removed query's final result count stays available through ResultCount
// and remains part of TotalResults.
func (s *System) RemoveQuery(name string) error {
	q, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("rumor: query %q not registered", name)
	}
	if s.plan == nil {
		delete(s.byName, name)
		s.queries = removeQueryFrom(s.queries, q)
		return nil
	}
	start := time.Now()
	final := s.eng.ResultCount(q.ID)
	m := live.NewMaintainer(s.plan, s.ropts)
	d, err := m.RemoveQuery(q.ID)
	if err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	if err := live.Apply(d, s.eng); err != nil {
		return fmt.Errorf("rumor: %w", err)
	}
	delete(s.byName, name)
	s.queries = removeQueryFrom(s.queries, q)
	if s.removed == nil {
		s.removed = make(map[string]int64)
	}
	s.removed[name] = final
	s.wireCallback()
	noteLiveRemove(name, d, time.Since(start))
	return s.logChurnRemove(name, d)
}

func removeQueryFrom(qs []*core.Query, q *core.Query) []*core.Query {
	out := qs[:0]
	for _, x := range qs {
		if x != q {
			out = append(out, x)
		}
	}
	return out
}

// queryNames returns the query names indexed by query ID. Query IDs are
// dense, so a result callback looks its query's name up in a slice.
func queryNames(qs []*core.Query) []string {
	n := 0
	for _, q := range qs {
		n = max(n, q.ID+1)
	}
	names := make([]string, n)
	for _, q := range qs {
		names[q.ID] = q.Name
	}
	return names
}

func (s *System) wireCallback() {
	if s.onResult == nil {
		s.eng.OnResult = nil
		return
	}
	names := queryNames(s.queries)
	fn := s.onResult
	s.eng.OnResult = func(qid int, t *stream.Tuple) {
		fn(names[qid], t.TS, t.Vals)
	}
}

// ErrArity reports a pushed row whose number of values is not the declared
// arity of its stream. Every Push* entry of System and ShardedSystem checks
// each row before ingesting any, so the call that returns it has ingested
// nothing.
var ErrArity = engine.ErrArity

// Push injects one tuple into a source stream. Tuples must be pushed in
// non-decreasing timestamp order across all sources.
func (s *System) Push(streamName string, ts int64, vals ...int64) error {
	if s.eng == nil {
		return fmt.Errorf("rumor: call Optimize before Push")
	}
	return s.eng.Push(streamName, &stream.Tuple{TS: ts, Vals: vals})
}

// PushBatch injects a batch of tuples into one source stream, enqueuing
// the whole batch before a single propagation drain. ts[i] pairs with
// vals[i]; timestamps must be non-decreasing and must not precede tuples
// pushed later on other sources that should be processed first — batching
// trades per-call overhead for coarser interleaving with other sources.
// Per-query result streams match per-tuple Push whenever every
// multi-input operator reads this source through paths of equal operator
// depth (true of typical plans; a source that feeds one join/sequence
// through paths of differing depth should stick to Push), though OnResult
// calls for different queries may interleave differently within a batch.
// The engine takes ownership of the vals slices.
func (s *System) PushBatch(streamName string, ts []int64, vals [][]int64) error {
	if s.eng == nil {
		return fmt.Errorf("rumor: call Optimize before PushBatch")
	}
	return s.eng.PushBatch(streamName, ts, vals)
}

// PushColumns injects a batch given column-major: ts[i] pairs with
// cols[a][i] (one slice per attribute). This is the zero-copy entry to the
// vectorized execution path — the engine wraps the slices into blocks for
// the duration of the drain and returns ownership to the caller, never
// exploding the batch into per-row tuples. The ordering caveats of
// PushBatch apply.
func (s *System) PushColumns(streamName string, ts []int64, cols [][]int64) error {
	if s.eng == nil {
		return fmt.Errorf("rumor: call Optimize before PushColumns")
	}
	return s.eng.PushColumns(streamName, ts, cols)
}

// PushShared injects one channel tuple that belongs to all the named
// sharable source streams at once (they must have been encoded into the
// same channel by optimization).
func (s *System) PushShared(streamNames []string, ts int64, vals ...int64) error {
	if s.eng == nil {
		return fmt.Errorf("rumor: call Optimize before PushShared")
	}
	if len(streamNames) == 0 {
		return fmt.Errorf("rumor: PushShared needs at least one stream")
	}
	member := bitset.New(len(streamNames))
	var edgeID = -1
	for _, name := range streamNames {
		ref := s.plan.SourceStream(name)
		if ref == nil {
			return fmt.Errorf("rumor: source %q not in plan", name)
		}
		e, pos := s.plan.EdgeOf(ref)
		if edgeID == -1 {
			edgeID = e.ID
		} else if e.ID != edgeID {
			return fmt.Errorf("rumor: streams %v are not encoded into one channel", streamNames)
		}
		member.Set(pos)
	}
	t := &stream.Tuple{TS: ts, Vals: vals, Member: member}
	return s.eng.Push(streamNames[0], t)
}

// ResultCount returns the number of results produced so far for a query.
// A query removed live reports its frozen final count.
func (s *System) ResultCount(query string) int64 {
	q, ok := s.byName[query]
	if !ok || s.eng == nil {
		return s.removed[query]
	}
	return s.eng.ResultCount(q.ID)
}

// TotalResults returns the number of results across all queries,
// including the final counts of queries removed live.
func (s *System) TotalResults() int64 {
	if s.eng == nil {
		return 0
	}
	return s.eng.TotalResults()
}

// PlanInfo returns summary statistics of the optimized plan.
func (s *System) PlanInfo() PlanInfo {
	if s.plan == nil {
		return PlanInfo{}
	}
	st := s.plan.Stats()
	sources := 0
	ops := 0
	for _, n := range s.plan.Nodes {
		if n.Kind == core.KindSource {
			sources++
			continue
		}
		ops += len(n.Ops)
	}
	info := PlanInfo{
		Queries:         st.Queries,
		MOps:            st.Nodes - sources,
		Operators:       ops,
		Channels:        st.Channels,
		Streams:         st.Streams,
		LiveSlots:       st.LiveSlots,
		TotalSlots:      st.TotalSlots,
		ChannelWords:    st.ChannelWords,
		SpilledChannels: st.SpilledChannels,
		BlockEdges:      st.BlockEdges,
	}
	if s.eng != nil {
		info.BlocksProcessed = s.eng.BlocksProcessed()
	}
	return info
}

// PlanString renders the optimized physical plan for inspection.
func (s *System) PlanString() string {
	if s.plan == nil {
		return "(not optimized)"
	}
	return s.plan.String()
}

// PlanDot renders the optimized physical plan in Graphviz dot format
// (channels drawn as dashed edges, as in the paper's figures).
func (s *System) PlanDot() string {
	if s.plan == nil {
		return "digraph rumor {}\n"
	}
	return s.plan.Dot()
}
