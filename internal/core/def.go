// Package core defines the central abstractions of the RUMOR framework
// (Hong et al., EDBT 2009): physical operator definitions, logical queries,
// and the physical query plan — a DAG whose nodes are m-ops (each
// implementing a *set* of operators, §2.2) and whose edges are channels
// (each encoding a *set* of streams with membership bit vectors, §3.1).
//
// The m-rules in package rules rewrite these plans; package mop lowers them
// to executable operators; package engine runs them.
package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/expr"
)

// OpKind identifies a physical operator type τ (Table 1 groups m-rules by
// operator type).
type OpKind int

// Operator kinds. Seq is the Cayuga sequence operator (;) and Mu the
// Cayuga iteration operator (µ), introduced into RUMOR in §4.2.
const (
	KindSource OpKind = iota
	KindSelect
	KindProject
	KindAgg
	KindJoin
	KindSeq
	KindMu
)

// String returns the operator-kind name.
func (k OpKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindSelect:
		return "select"
	case KindProject:
		return "project"
	case KindAgg:
		return "agg"
	case KindJoin:
		return "join"
	case KindSeq:
		return "seq"
	case KindMu:
		return "mu"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Arity returns the number of input streams for the kind (0 for sources).
func (k OpKind) Arity() int {
	switch k {
	case KindSource:
		return 0
	case KindJoin, KindSeq, KindMu:
		return 2
	default:
		return 1
	}
}

// AggFn is a sliding-window aggregate function.
type AggFn int

// Aggregate functions.
const (
	AggSum AggFn = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String returns the aggregate-function name.
func (f AggFn) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("agg(%d)", int(f))
}

// Def is a physical operator definition: everything about an operator
// except its input wiring. Two operators have "the same definition" in the
// sense of the paper's m-rules exactly when their Key()s are equal.
//
// Field use by kind:
//
//	Select:  Pred
//	Project: Map
//	Agg:     Agg, AggAttr, GroupBy, Window
//	Join:    Pred2 (join predicate, no duration), Window (per side)
//	Seq:     Pred2 (θ, no duration), Window (duration predicate θ2)
//	Mu:      Pred2 (forward/rebind predicate θr over (instance, event)),
//	         Filter2 (filter-edge predicate θf), Window
//
// A Def is immutable once built: Key is computed on first use and cached,
// so no field may change after the Def has been handed to a plan (the
// wire decoder only fills a fresh Def before returning it). The cache is
// safe for concurrent use: sharded replicas key the same Defs in parallel.
type Def struct {
	Kind OpKind

	Pred expr.Pred       // Select
	Map  *expr.SchemaMap // Project

	Agg     AggFn // Agg
	AggAttr int   // attribute aggregated
	GroupBy []int // group-by attributes

	Pred2   expr.Pred2 // Join/Seq/Mu main predicate (duration excluded)
	Filter2 expr.Pred2 // Mu filter-edge predicate θf

	// Window is the time window: sliding-window length for Agg/Join, the
	// duration predicate for Seq/Mu. 0 means unbounded.
	Window int64

	key atomic.Pointer[string] // cached Key, built on first use
}

// Key returns the canonical full-definition key. It is built once per Def;
// racing first callers build equal strings, and either may be kept.
func (d *Def) Key() string {
	if k := d.key.Load(); k != nil {
		return *k
	}
	k := fmt.Sprintf("%s|%s|w=%d", d.Kind, d.keyModuloWindow(), d.Window)
	d.key.Store(&k)
	return k
}

// shareKey makes d hold o's cached key, which it must equal: CSE calls it
// on the Defs of the ops it collapses, so their retained keys are one copy.
func (d *Def) shareKey(o *Def) {
	if k := o.key.Load(); k != nil && d != o {
		d.key.Store(k)
	}
}

// keyModuloWindow is the definition key with the window excluded.
func (d *Def) keyModuloWindow() string {
	switch d.Kind {
	case KindSource:
		return "src"
	case KindSelect:
		return d.Pred.Key()
	case KindProject:
		return d.Map.Key()
	case KindAgg:
		gb := make([]string, len(d.GroupBy))
		for i, g := range d.GroupBy {
			gb[i] = fmt.Sprintf("%d", g)
		}
		return fmt.Sprintf("%s(a[%d])by[%s]", d.Agg, d.AggAttr, strings.Join(gb, ","))
	case KindJoin:
		return d.Pred2.Key()
	case KindSeq:
		return d.Pred2.Key()
	case KindMu:
		return d.Pred2.Key() + "/f:" + d.Filter2.Key()
	}
	return "?"
}

// KeyModuloWindow returns the definition key ignoring the window length.
// Used by the shared-join rule s⨝ ("same join predicate but potentially
// different window lengths", Table 1) and its Seq/Mu analogue. It is the
// prefix of Key before the "|w=N" suffix, so it shares Key's cached bytes.
func (d *Def) KeyModuloWindow() string {
	k := d.Key()
	return k[:strings.LastIndex(k, "|w=")]
}

// SelectDef builds a selection definition.
func SelectDef(p expr.Pred) *Def { return &Def{Kind: KindSelect, Pred: p} }

// ProjectDef builds a projection (schema map) definition.
func ProjectDef(m *expr.SchemaMap) *Def { return &Def{Kind: KindProject, Map: m} }

// AggDef builds a sliding-window aggregation definition.
func AggDef(fn AggFn, attr int, window int64, groupBy ...int) *Def {
	return &Def{Kind: KindAgg, Agg: fn, AggAttr: attr, Window: window, GroupBy: groupBy}
}

// JoinDef builds a windowed join definition.
func JoinDef(p expr.Pred2, window int64) *Def {
	return &Def{Kind: KindJoin, Pred2: p, Window: window}
}

// SeqDef builds a Cayuga sequence (;) definition. The duration predicate
// θ2 is the window.
func SeqDef(p expr.Pred2, window int64) *Def {
	return &Def{Kind: KindSeq, Pred2: p, Window: window}
}

// MuDef builds a Cayuga iteration (µ) definition with rebind predicate
// rebind, filter-edge predicate filter, and duration window.
func MuDef(rebind, filter expr.Pred2, window int64) *Def {
	return &Def{Kind: KindMu, Pred2: rebind, Filter2: filter, Window: window}
}
