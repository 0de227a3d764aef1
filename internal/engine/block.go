package engine

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/stream"
)

// Block routing: the vectorized execution path. Ingest builds columnar
// blocks instead of exploding batches into tuples; drain carries blocks
// along edges whose consumer speaks BatchMOp — selection, whose outputs are
// blocks again, and ;/µ, which dispatch on the columns and emit row tuples
// (one dense-edge lookup per block instead of per tuple); and at the
// boundary to the scalar m-ops the block→scalar adapter materializes pooled
// row tuples, so join/agg/project see exactly the tuples the scalar path
// would have delivered.

// blockMinRows is the minimum run length worth building blocks for:
// shorter runs take the scalar path, whose per-row cost beats block set-up
// at that size.
const blockMinRows = 4

// BlocksProcessed returns the number of blocks delivered along
// block-capable edges since the engine was built (ingest and m-op output
// blocks alike).
func (e *Engine) BlocksProcessed() int64 { return e.blocksProcessed }

func (e *Engine) enqueueBlock(route int, b *stream.Block) {
	e.qHasBlocks = true
	e.queue = append(e.queue, queued{route: route, b: b})
}

// PushColumns injects a batch given column-major — ts[i] pairs with
// cols[a][i] — and drains the plan. This is the zero-copy ingest entry:
// the blocks borrow the caller's slices for the duration of the drain (the
// engine copies at the block→scalar boundary and never retains them), so
// the caller regains ownership when PushColumns returns. Timestamps must
// be non-decreasing.
//
// Per-query result streams are identical to pushing the rows one by one
// whenever every multi-input m-op reads this source through paths of equal
// operator depth (true of single-path plans and of the paper's workloads);
// sources feeding one m-op through paths of differing depth should stick
// to Push. Within a batch, OnResult calls for queries at different
// pipeline depths may interleave differently than under per-row Push
// (propagation is breadth-first across the batch).
//
// A batch with rows must have one column per attribute of the source
// (ErrArity otherwise). A batch of fewer than blockMinRows rows, or one
// whose source's channel membership has spilled past the inline word, is
// injected row by row on the scalar path instead, with the same results.
func (e *Engine) PushColumns(source string, ts []int64, cols [][]int64) error {
	return e.PushColumnsSel(source, ts, cols, nil)
}

// PushColumnsSel is PushColumns over the rows sel selects: row i is
// ingested iff sel[i>>6] has bit i&63, and a nil sel selects every row.
// The per-query results equal those of PushColumns over the selected rows
// alone. A 256-row ingest block that selects no row is never enqueued.
//
//rumor:owner — builds pooled ingest tuples on the scalar path and marks them engine-releasable.
func (e *Engine) PushColumnsSel(source string, ts []int64, cols [][]int64, sel []uint64) error {
	for a, col := range cols {
		if len(col) != len(ts) {
			return fmt.Errorf("engine: source %q: %w: %d timestamps, %d rows in column %d", source, ErrArity, len(ts), len(col), a)
		}
	}
	si, ok := e.lookupSource(source)
	if !ok {
		return fmt.Errorf("engine: source %q not in plan", source)
	}
	if len(ts) > 0 && len(cols) != si.arity {
		return arityErr(source, si.arity, len(cols))
	}
	memberWord, inline := memberWordOf(si)
	if !inline || len(ts) < blockMinRows {
		// Each selected row becomes a pooled tuple of its own, released
		// like an m-op's output once its delivery retains nothing.
		for i := range ts {
			if sel != nil && sel[i>>6]&(1<<uint(i&63)) == 0 {
				continue
			}
			t := e.pool.Get(ts[i], len(cols))
			for a, col := range cols {
				t.Vals[a] = col[i]
			}
			t.Member, t.Owned = si.member, true
			e.enqueue(si.route, t)
		}
		e.drain()
		return nil
	}
	for off := 0; off < len(ts); off += stream.MaxBlockRows {
		n := min(stream.MaxBlockRows, len(ts)-off)
		b := e.bpool.Wrap(ts, cols, off, n)
		if sel != nil {
			var live uint64
			for i := range b.Sel {
				b.Sel[i] &= sel[off>>6+i]
				live |= b.Sel[i]
			}
			if live == 0 {
				e.bpool.Put(b)
				continue
			}
		}
		fillMember(e.bpool, b, memberWord)
		e.enqueueBlock(si.route, b)
	}
	e.drain()
	return nil
}

// memberWordOf returns the source's channel membership as one inline word
// (0 for a plain source edge); ok is false when it has spilled.
func memberWordOf(si sourceInfo) (w uint64, ok bool) {
	if si.member == nil {
		return 0, true
	}
	return si.member.InlineWord()
}

// fillMember attaches the packed membership column for a channel-encoded
// source: every ingest row carries the source's singleton word.
func fillMember(bp *stream.BlockPool, b *stream.Block, word uint64) {
	if word == 0 {
		return
	}
	bp.GetMember(b)
	for i := range b.Member {
		b.Member[i] = word
	}
}

// deliverBlock is the block counterpart of deliver: sinks are counted in
// bulk, one add per sink, batch consumers get the whole block, and scalar
// consumers (or a result callback) get materialized rows through the
// adapter.
func (e *Engine) deliverBlock(route int, b *stream.Block) {
	r := &e.routes[route]
	e.blocksProcessed++
	live := int64(b.SelCount())
	rowSinks := r.hasSink && e.OnResult != nil
	if r.hasSink && !rowSinks {
		for i := range r.sinks {
			s := &r.sinks[i]
			cnt := live
			if s.pos >= 0 {
				cnt = 0
				if b.Member != nil {
					mask := uint64(1) << uint(s.pos)
					for wi, w := range b.Sel {
						base := wi << 6
						for w != 0 {
							bit := bits.TrailingZeros64(w)
							w &^= 1 << uint(bit)
							if b.Member[base+bit]&mask != 0 {
								cnt++
							}
						}
					}
				}
			}
			s.n += cnt
		}
	}
	for _, c := range r.batchConsumers {
		n := c.node
		n.processed += live
		if e.obsOn {
			t0 := time.Now()
			n.bm.ProcessBlock(c.port, b, e.bpool, n.emit, n.emitB)
			n.busyNS += time.Since(t0).Nanoseconds()
		} else {
			n.bm.ProcessBlock(c.port, b, e.bpool, n.emit, n.emitB)
		}
	}
	if len(e.results) > 0 {
		e.deliverResults()
	}
	if len(r.scalarConsumers) > 0 || rowSinks {
		e.deliverBlockRows(r, b, rowSinks)
	}
}

// deliverBlockRows is the block→scalar adapter: each live row becomes a
// pooled tuple delivered to the edge's scalar consumers (and, when a
// result callback is installed, to the sinks), mirroring deliver()'s
// ownership and release discipline row by row.
func (e *Engine) deliverBlockRows(r *edgeRoute, b *stream.Block, rowSinks bool) {
	for wi, w := range b.Sel {
		base := wi << 6
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << uint(bit)
			i := base + bit
			t := e.pool.Get(b.TS[i], len(b.Cols))
			b.CopyRow(t, i, e.bpool)
			t.Owned = !r.rowClearsOwned
			if rowSinks {
				e.toSinks(r, t)
			}
			for _, c := range r.scalarConsumers {
				n := c.node
				n.processed++
				if e.obsOn && n.processed&busyMask == 0 {
					t0 := time.Now()
					n.m.Process(c.port, t, n.emit)
					n.busyNS += time.Since(t0).Nanoseconds() * (busyMask + 1)
				} else {
					n.m.Process(c.port, t, n.emit)
				}
			}
			if len(e.results) > 0 {
				e.deliverResults()
			}
			if t.Owned && r.rowReleasable {
				e.pool.Put(t)
			}
		}
	}
}
