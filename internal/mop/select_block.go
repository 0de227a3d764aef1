package mop

import (
	"math/bits"

	"repro/internal/expr"
	"repro/internal/stream"
)

// Vectorized selection: SelectMOp implements BatchMOp with fused
// predicate-chain kernels. Instead of one virtual Process call per tuple,
// the engine hands the m-op a whole columnar block; predicates are
// evaluated one column pass at a time into selection bitmaps, the dense
// constant index is probed once per run of equal values, and the channel
// select cσ gates and ORs packed membership words instead of bitset.Set
// operations. The observable output equals row-by-row Process exactly —
// the equivalence tests in internal/engine drive both paths over the
// benchmark workloads and diff the results.

// BlockReady implements BatchMOp.
func (m *SelectMOp) BlockReady() bool { return m.vec }

// ProcessBlock implements BatchMOp: the vectorized sσ/cσ kernel. Outputs
// are derived blocks, so the row closure is unused.
func (m *SelectMOp) ProcessBlock(port int, in *stream.Block, bp *stream.BlockPool, _ Emit, emit EmitBlock) {
	sp := &m.ports[port]
	outs := m.blkOuts

	// applyOps fires group g's operators at live row i (the group predicate
	// has already held there): gate on the row's membership word, then mark
	// the row live in the target port's derived block and OR in the output
	// membership bit. Output blocks share the input's columns — selection
	// only narrows, so firing a row costs two word ops.
	applyOps := func(g *selGroup, i int) {
		for _, o := range g.ops {
			if o.inPos >= 0 && (in.Member == nil || in.Member[i]&(1<<uint(o.inPos)) == 0) {
				continue
			}
			ob := outs[o.tg.port]
			if ob == nil {
				ob = bp.Derive(in)
				if m.outChan[o.tg.port] {
					bp.GetMember(ob)
				}
				outs[o.tg.port] = ob
			}
			ob.Sel[i>>6] |= 1 << uint(i&63)
			if o.tg.pos >= 0 {
				ob.Member[i] |= 1 << uint(o.tg.pos)
			}
		}
	}

	// Indexed path: one pass over the live rows per indexed attribute,
	// probing the constant index once per run of equal values (skewed
	// columns repeat values back to back, so the memoized probe short-cuts
	// most rows to a pointer compare).
	for ii := range sp.indexed {
		idx := &sp.indexed[ii]
		if idx.attr >= len(in.Cols) {
			continue
		}
		col := in.Cols[idx.attr]
		var lastV int64
		var lastGs []*selGroup
		var have bool
		for wi, w := range in.Sel {
			if w == 0 {
				continue
			}
			base := wi << 6
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << uint(b)
				i := base + b
				if v := col[i]; !have || v != lastV {
					lastGs = idx.byConst.get(v)
					lastV, have = v, true
				}
				for _, g := range lastGs {
					if g.residual && !expr.EvalAt(g.pred, in.Cols, i) {
						continue
					}
					applyOps(g, i)
				}
			}
		}
	}

	// Sequential groups: fused predicate-chain kernel. Each group's
	// predicate narrows a scratch copy of the selection one conjunct-column
	// pass at a time (expr.FilterSel); the surviving rows then take the
	// membership-word gate/OR of applyOps — the bulk form of cσ.
	if len(sp.seq) > 0 {
		scratch := m.selScratch
		for _, g := range sp.seq {
			scratch = append(scratch[:0], in.Sel...)
			expr.FilterSel(g.pred, in.Cols, scratch)
			for wi, w := range scratch {
				if w == 0 {
					continue
				}
				base := wi << 6
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &^= 1 << uint(b)
					applyOps(g, base+b)
				}
			}
		}
		m.selScratch = scratch[:0]
	}

	// Emit the populated output blocks (a block is only derived when a row
	// fires, so every non-nil entry has at least one live row).
	for p, ob := range outs {
		if ob == nil {
			continue
		}
		outs[p] = nil
		emit(p, ob)
	}
}
