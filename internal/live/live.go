// Package live implements incremental plan maintenance: adding and
// removing queries on a running RUMOR engine without rebuilding the plan
// or dropping the operator state the surviving queries share.
//
// Adding a query plans it naively into the running physical plan (package
// core) and re-runs the batch m-rules, seeded by the delta (rules.Seeded):
// the plan is already at fixpoint, so rules fire only where the new
// query's operators create sharing opportunities, merging them into the
// existing shared m-ops, growing channel memberships append-only, and
// recording every touched node and edge in a core.Delta. The execution
// engines then splice the delta into their dense routing tables
// (engine.ApplyDelta), re-lowering only the dirty m-ops and migrating
// their predecessors' window buffers, hash indexes, and stored automaton
// instances (package mop).
//
// Removing a query decrements per-operator reference counts implicitly:
// operators reachable only from the removed query's output are garbage-
// collected (nodes shrink or disappear, channel positions are tombstoned
// so surviving memberships stay valid, pooled seq-instance state of
// µ groups returns to the tuple pool), and the same delta path updates
// the engines. Channels whose tombstoned slots come to dominate are then
// compacted in the same delta (core.CompactChannels): dead positions are
// dropped, the position remap travels on the delta, and the engines
// rewrite the stored memberships before re-lowering — so sustained churn
// keeps membership words bounded (live/total slots ≥ 1/2 in steady
// state). Tombstoned slots that survive are handed to the next live add
// (EncodeChannel slot reuse) before the channel grows.
//
// State semantics: an operator that keeps serving at least one surviving
// query keeps its state untouched — surviving queries' results are
// bit-identical to a run that planned only them up front. A new query
// merged into an existing shared operator starts from the shared state
// the sharing structure exposes: CSE reuses the running operator
// outright; a plain-mode shared group serves its whole store to every
// member (an aggregate that differs from a running one only in its window
// joins that aggregate's family, and the shared entry log serves it its
// whole window when that is no longer than the family's largest, as the
// shared join store serves a new join window); and a channel-mode member
// at a fresh membership position has its view re-derived by full-window
// state replay (engine.ApplyDelta) —
// the stored items are pushed through the member's gating selections and
// tagged with its membership bit wherever the stored content permits an
// exact re-evaluation (single-source channels; for aggregation windows
// additionally predicates over the stored columns only). Members outside
// those conditions start cold, as the channel encoding alone would have
// them.
package live

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rules"
)

// AddQuery plans q naively into the running plan, re-runs the rule engine
// incrementally, and returns the recorded delta. Opt must be the options
// the plan was optimized with (the rules must agree with the fixpoint in
// place). The caller applies the delta to its engines and serializes
// maintenance operations (the public System type does). The query tree
// is fully pre-validated, so a rejected query leaves the plan untouched;
// an error from the rule engine or the post-hoc plan validation itself
// signals a broken invariant — the plan may then be partially rewritten
// and the system must be rebuilt, which is why both paths are
// structurally unreachable for well-formed plans.
func AddQuery(plan *core.Physical, opt rules.Options, q *core.Query) (*core.Delta, error) {
	// Pre-validate the whole tree (sources, schemas) so the naive build
	// cannot fail halfway and leave a partially mutated plan.
	if err := q.Root.Validate(); err != nil {
		return nil, fmt.Errorf("live: query %q: %w", q.Name, err)
	}
	if _, err := core.SchemaOf(q.Root, plan.Catalog); err != nil {
		return nil, fmt.Errorf("live: query %q: %w", q.Name, err)
	}
	if err := plan.BeginDelta(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if err := plan.AddQuery(q); err != nil {
		plan.TakeDelta()
		return nil, fmt.Errorf("live: %w", err)
	}
	if _, err := rules.NewOptimizer(opt).Run(plan); err != nil {
		plan.TakeDelta()
		return nil, fmt.Errorf("live: incremental optimization: %w", err)
	}
	d := plan.TakeDelta()
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("live: plan invalid after add: %w", err)
	}
	return d, nil
}

// RemoveQuery garbage-collects the query's exclusively owned operators
// from the running plan, compacts any channel the removal leaves
// tombstone-dominated, and returns the recorded delta.
func RemoveQuery(plan *core.Physical, queryID int) (*core.Delta, error) {
	if err := plan.BeginDelta(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if err := plan.RemoveQuery(queryID); err != nil {
		plan.TakeDelta()
		return nil, fmt.Errorf("live: %w", err)
	}
	plan.CompactChannels()
	d := plan.TakeDelta()
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("live: plan invalid after remove: %w", err)
	}
	return d, nil
}
