package stream

import (
	"math/bits"

	"repro/internal/bitset"
)

// Block is a columnar batch of tuples flowing along one edge: the unit of
// the vectorized execution path. Where a Tuple is one row, a Block is up to
// a few hundred rows stored column-major, so a predicate kernel touches one
// attribute's values contiguously and the engine pays its routing and
// dispatch costs once per block instead of once per row.
//
//   - TS[i] is row i's timestamp; Cols[a][i] is row i's value of attribute a.
//   - Sel is the selection bitmap: row i is live iff Sel[i>>6] has bit i&63.
//     Kernels narrow a block by writing a fresh Sel; the columns are never
//     rewritten or compacted.
//   - Member, when non-nil, is the packed membership column of a channel
//     block: Member[i] is row i's membership bit vector as one 64-bit word
//     (the inline representation of bitset.Set). Blocks cannot represent
//     spilled (>64-slot) memberships — such tuples take the scalar path.
//
// Blocks are transient: they live within one engine drain, are never stored
// by m-ops, and return to their pool when the drain ends. A stateful
// operator that takes blocks (;/µ) copies each row it keeps into a pooled
// tuple of its own; the others (join, aggregation, projection) receive
// materialized tuples at the engine's block→scalar boundary.
// Derived blocks (a kernel's outputs) share TS and Cols with their input
// and own only Sel and Member, so narrowing a block allocates nothing in
// steady state.
type Block struct {
	TS     []int64
	Cols   [][]int64
	Sel    []uint64
	Member []uint64

	n int // row count

	// ownData marks a block whose TS and Cols (outer slice and column
	// arrays) are pool capacity to recycle on Put; a derived or borrowing
	// block only drops its references.
	ownData bool
}

// MaxBlockRows is the default row capacity of ingest-built blocks: large
// enough to amortize per-block costs, small enough that a block's working
// set (ts + 10 attrs + bitmap) stays cache-resident.
const MaxBlockRows = 256

// SelCount returns the number of live rows.
//
//rumor:noalloc
func (b *Block) SelCount() int {
	c := 0
	for _, w := range b.Sel {
		c += bits.OnesCount64(w)
	}
	return c
}

// selWords returns the number of bitmap words covering n rows.
func selWords(n int) int { return (n + 63) / 64 }

// SelAll sets every row of the block live (and clears the tail bits past
// the row count, which every bulk operation relies on being zero).
//
//rumor:noalloc
func (b *Block) SelAll() {
	full := b.n >> 6
	for i := 0; i < full; i++ {
		b.Sel[i] = ^uint64(0)
	}
	if rest := b.n & 63; rest != 0 {
		b.Sel[full] = (uint64(1) << uint(rest)) - 1
	}
}

// BlockPool recycles block headers and their column capacity within one
// single-threaded execution domain, exactly like Pool does for tuples. All
// methods are nil-receiver safe (falling back to plain allocation) so code
// paths shared with pool-less callers need no branching.
type BlockPool struct {
	free []*Block

	// memberSets interns the multi-bit membership sets handed out by
	// MemberSet, with a last-word memo in front since consecutive rows of a
	// channel block usually share a membership word.
	memberSets     map[uint64]*bitset.Set
	lastMemberWord uint64
	lastMemberSet  *bitset.Set
}

// maxBlockFree bounds the free list; blocks beyond it go to the collector.
const maxBlockFree = 1 << 10

// NewBlockPool returns an empty per-engine block pool.
func NewBlockPool() *BlockPool { return &BlockPool{} }

func (p *BlockPool) get() *Block {
	if p != nil {
		if k := len(p.free); k > 0 {
			b := p.free[k-1]
			p.free[k-1] = nil
			p.free = p.free[:k-1]
			return b
		}
	}
	return &Block{}
}

// sizeSel (re)sizes b.Sel for n rows, zeroed.
//
//rumor:noalloc
func sizeSel(b *Block, n int) {
	w := selWords(n)
	if cap(b.Sel) < w {
		b.Sel = make([]uint64, w)
	} else {
		b.Sel = b.Sel[:w]
		clear(b.Sel)
	}
}

// Get returns a block with owned capacity for n rows × arity attribute
// columns. TS and the columns have length n with unspecified contents
// (callers overwrite every slot); Sel is zeroed; Member is nil (call
// GetMember to attach one).
//
//rumor:noalloc
func (p *BlockPool) Get(n, arity int) *Block {
	b := p.get()
	b.n = n
	b.ownData = true
	b.Member = nil
	if cap(b.TS) < n {
		b.TS = make([]int64, n)
	} else {
		b.TS = b.TS[:n]
	}
	if cap(b.Cols) < arity {
		b.Cols = make([][]int64, arity)
	} else {
		b.Cols = b.Cols[:arity]
	}
	for a := range b.Cols {
		if cap(b.Cols[a]) < n {
			b.Cols[a] = make([]int64, n)
		} else {
			b.Cols[a] = b.Cols[a][:n]
		}
	}
	sizeSel(b, n)
	return b
}

// setCols points b's (owned) outer column slice at the given column
// arrays. The outer slice is part of the header's recycled capacity; only
// the column arrays themselves are borrowed.
func (b *Block) setCols(cols [][]int64) {
	if cap(b.Cols) < len(cols) {
		b.Cols = make([][]int64, len(cols))
	} else {
		b.Cols = b.Cols[:len(cols)]
	}
	copy(b.Cols, cols)
}

// Wrap returns a block borrowing rows [off, off+n) of the caller's column
// slices (no copy): ts[i] pairs with cols[a][i]. Every row of the block is
// selected. The block reads the borrowed slices only until it returns to
// the pool (end of the drain it was pushed into); it never retains them.
func (p *BlockPool) Wrap(ts []int64, cols [][]int64, off, n int) *Block {
	b := p.get()
	b.n = n
	b.ownData = false
	b.Member = nil
	b.TS = ts[off : off+n]
	b.setCols(cols)
	for a := range b.Cols {
		b.Cols[a] = b.Cols[a][off : off+n]
	}
	sizeSel(b, n)
	b.SelAll()
	return b
}

// Derive returns a block sharing src's rows (TS and the column arrays)
// with a fresh, zeroed selection and no membership. This is how kernels
// build their outputs: narrowing allocates nothing in steady state.
//
//rumor:noalloc
func (p *BlockPool) Derive(src *Block) *Block {
	b := p.get()
	b.n = src.n
	b.ownData = false
	b.Member = nil
	b.TS = src.TS
	b.setCols(src.Cols)
	sizeSel(b, b.n)
	return b
}

// GetMember attaches an owned, zeroed membership column to b.
//
//rumor:noalloc
func (p *BlockPool) GetMember(b *Block) {
	if cap(b.Member) < b.n {
		b.Member = make([]uint64, b.n)
	} else {
		b.Member = b.Member[:b.n]
		clear(b.Member)
	}
}

// MemberSet interns the bitset.Set for one packed membership word of a
// channel block (nil for the zero word). A row leaving the columnar
// representation — at the engine's block→scalar adapter or inside a
// stateful kernel — needs its membership as a set, and stored memberships
// must be shared read-only objects (the scalar path already shares interned
// singletons across every ingest tuple), so the pool hands out one set per
// distinct word: singletons from the global interning table, wider words
// from a per-pool cache.
func (p *BlockPool) MemberSet(w uint64) *bitset.Set {
	if w == 0 {
		return nil
	}
	if w&(w-1) == 0 {
		return bitset.Singleton(bits.TrailingZeros64(w))
	}
	if p == nil {
		return bitset.FromWord(w)
	}
	if w == p.lastMemberWord {
		return p.lastMemberSet
	}
	s := p.memberSets[w]
	if s == nil {
		if p.memberSets == nil {
			p.memberSets = make(map[uint64]*bitset.Set)
		}
		s = bitset.FromWord(w)
		p.memberSets[w] = s
	}
	p.lastMemberWord, p.lastMemberSet = w, s
	return s
}

// CopyRow copies row i of b into t — the one place a row leaves the columnar
// representation. t.Vals must already have the block's arity; the timestamp
// is the caller's to set. A channel block's membership word becomes a set
// from bp's interner, a plain block's row gets none.
//
//rumor:noalloc
func (b *Block) CopyRow(t *Tuple, i int, bp *BlockPool) {
	for a, col := range b.Cols {
		t.Vals[a] = col[i]
	}
	t.Member = nil
	if b.Member != nil {
		t.Member = bp.MemberSet(b.Member[i])
	}
}

// Put returns b to the pool. Owned capacity (Sel, Member, the outer column
// slice, and — for blocks built by Get — TS and the columns) is kept for
// reuse; shared or borrowed references are dropped. The caller must be past
// the block's last read: blocks deriving from b must be Put no later than b
// itself is reused, which the engine guarantees by recycling all of a
// drain's blocks at once.
//
//rumor:noalloc
func (p *BlockPool) Put(b *Block) {
	if !b.ownData {
		b.TS = nil
		clear(b.Cols)
		b.Cols = b.Cols[:0]
	}
	b.n = 0
	if p != nil && len(p.free) < maxBlockFree {
		p.free = append(p.free, b)
	}
}
