// Live rule application: the incremental re-run of the rule engine behind
// AddQueryLive (package live). The plan is already at the fixpoint of the
// standard rules, so a re-run only fires where the freshly added query's
// naive operators create new sharing opportunities — merging them into the
// existing shared m-ops. Two restrictions keep running operator state
// valid:
//
//   - CSE keeps the lowest-ID (pre-existing) operator of a collapsed
//     group, so stored state and query outputs always migrate toward the
//     operator the engine already runs (this is the standard rule's
//     behaviour, relied upon here).
//   - Channel encoding is append-only (Channelize with Live set): an
//     existing channel may grow by the new streams, and new channels may
//     form from delta-new edges, but a pre-existing plain edge is never
//     re-encoded — stored plain tuples carry no membership, so
//     re-encoding would make the running consumers' state unreadable.
//     Growth first reclaims
//     tombstoned slots (EncodeChannel slot reuse, scrubbing their stored
//     bits through a delta-recorded remap), so an add/remove/add cycle of
//     the same query does not widen the membership words.
package rules

import "repro/internal/core"

// LiveRules returns the rule set for incremental optimization of a running
// plan: the merge rules and the append-only channel rule, each seeded from
// the active delta's dirty nodes — on a plan otherwise at fixpoint a rule
// can only fire on a group touching a delta operator, so an add visits its
// own sharing partners (found through the consumer, edge, and share-class
// indexes) instead of re-scanning the whole plan.
func LiveRules(opt Options) []Rule {
	rs := []Rule{
		Seeded{CSE{}},
		Seeded{MergeSameInput{Kind: core.KindSelect}},
		Seeded{MergeSameInput{Kind: core.KindProject}},
		Seeded{MergeAgg{}},
		Seeded{MergeJoin{}},
		Seeded{MergeSeq{Kind: core.KindSeq}},
		Seeded{MergeSeq{Kind: core.KindMu}},
	}
	if opt.Channels {
		rs = append(rs, Seeded{Channelize{MinStreams: opt.ChannelMinStreams, Live: true}})
	}
	return rs
}

// OptimizeLive applies the live rule set to a fixpoint. The caller is
// responsible for delta recording and final validation.
func OptimizeLive(p *core.Physical, opt Options) error {
	o := &Optimizer{Rules: LiveRules(opt)}
	_, err := o.run(p, opt.MaxRounds)
	return err
}
