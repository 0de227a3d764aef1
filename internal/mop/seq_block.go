package mop

import (
	"math/bits"

	"repro/internal/stream"
)

// Vectorized dispatch for ; and µ: SeqMOp implements BatchMOp, so the edges
// into it carry blocks and the engine's block→scalar adapter is off the
// path. The kernel forks dispatch only. Matching, expiry and emission are
// the scalar functions (processLeft, processRight and everything below
// them), called for the same rows in the same order as row-by-row Process
// would call them; what the kernel saves is the work Process spends on rows
// that reach no group. On a probe-only port those are the majority: a T
// event finds its candidate groups through the AN index [7,8], and when the
// index names none the row is skipped on the column, never becoming a
// tuple.

// BlockReady implements BatchMOp.
func (m *SeqMOp) BlockReady() bool { return m.vec }

// ProcessBlock implements BatchMOp. Outputs are freshly concatenated tuples,
// so they leave through the row closure and the block closure is unused.
func (m *SeqMOp) ProcessBlock(port int, b *stream.Block, bp *stream.BlockPool, emit Emit, _ EmitBlock) {
	rd := m.rights[port]
	if ld := m.lefts[port]; ld != nil {
		m.storeBlock(ld, rd, b, bp, emit)
	} else if rd != nil {
		m.probeBlock(rd, b, bp, emit)
	}
}

// storeBlock handles a storing (left) port: every live row takes the scalar
// path through the m-op's scratch tuple, and a group that stores the row
// keeps a pooled copy of its own (stateGroup.insert), so rows no group
// stores cost nothing. rd is non-nil when operators also read the port on
// their right side.
//
//rumor:noalloc
func (m *SeqMOp) storeBlock(ld *leftDispatch, rd *rightDispatch, b *stream.Block, bp *stream.BlockPool, emit Emit) {
	for wi, w := range b.Sel {
		base := wi << 6
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			t := m.scratchRow(b, base+bit, bp)
			m.processLeft(ld, t, true)
			if rd != nil {
				m.processRight(rd, t, emit)
			}
		}
	}
}

// probeBlock handles a probe-only (right) port. Right tuples are never
// retained — matches copy them into fresh concatenations — so the rows that
// reach a group share one scratch tuple, and the rows that reach none (no AN
// hit and no unindexed group) cost one index probe on the column each.
//
//rumor:noalloc
func (m *SeqMOp) probeBlock(rd *rightDispatch, b *stream.Block, bp *stream.BlockPool, emit Emit) {
	always := len(rd.rest) > 0
	for wi, w := range b.Sel {
		base := wi << 6
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			i := base + bit
			if !always && !rd.anHit(b, i) {
				continue
			}
			m.processRight(rd, m.scratchRow(b, i, bp), emit)
		}
	}
}

// scratchRow copies row i of b into the m-op's scratch tuple, valid until
// the next call: whoever keeps the row copies it.
//
//rumor:noalloc
func (m *SeqMOp) scratchRow(b *stream.Block, i int, bp *stream.BlockPool) *stream.Tuple {
	t := &m.probe
	if cap(t.Vals) < len(b.Cols) {
		t.Vals = make([]int64, len(b.Cols))
	}
	t.TS, t.Vals = b.TS[i], t.Vals[:len(b.Cols)]
	b.CopyRow(t, i, bp)
	return t
}

// anHit reports whether some AN index names a group for row i of b.
//
//rumor:noalloc
func (rd *rightDispatch) anHit(b *stream.Block, i int) bool {
	for ai := range rd.an {
		idx := &rd.an[ai]
		if idx.attr < len(b.Cols) && len(idx.byConst.get(b.Cols[idx.attr][i])) > 0 {
			return true
		}
	}
	return false
}
