package stream

import "repro/internal/bitset"

// Pool recycles tuple headers (and their value capacity) within one
// single-threaded execution domain — one engine replica, i.e. one shard
// worker. Unlike the package-global sync.Pool behind GetTuple/Release, a
// Pool is NOT safe for concurrent use: each engine owns one and touches it
// only from the goroutine currently driving that engine (the shard worker,
// or, at one inline shard, the pusher holding the router's lock). Steady-state recycling then
// costs a slice pop/push with no cross-CPU pool traffic at high shard
// counts.
//
// Pools are plain recyclers, not owners: a tuple drawn from one pool may
// be released into another (or via the global Release) without harm, so
// state migrated between engine replicas by a rebalance simply continues
// its life in the destination engine's pool.
//
// All methods are nil-receiver safe and fall back to the global pool, so
// code paths shared with pool-less callers need no branching.
type Pool struct {
	free []*Tuple
}

// maxPoolFree bounds the per-engine free list; beyond it, released tuples
// go to the garbage collector (the bound is only reached after a transient
// burst far above steady-state live tuples).
const maxPoolFree = 1 << 16

// NewPool returns an empty per-engine tuple pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a recycled tuple with the given timestamp and a Vals slice
// of length n whose contents are unspecified (callers overwrite every
// slot). The contract matches GetTuple.
//
//rumor:noalloc
func (p *Pool) Get(ts int64, n int) *Tuple {
	if p == nil {
		return GetTuple(ts, n)
	}
	var t *Tuple
	if k := len(p.free); k > 0 {
		t = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	} else {
		t = new(Tuple)
	}
	t.TS = ts
	t.Member = nil
	t.Owned = false
	if cap(t.Vals) < n {
		t.Vals = make([]int64, n)
	} else {
		t.Vals = t.Vals[:n]
	}
	return t
}

// Put returns t to the pool. The caller must own t and its Vals array
// exclusively (same contract as Tuple.Release).
//
//rumor:noalloc
func (p *Pool) Put(t *Tuple) {
	if p == nil {
		t.Release()
		return
	}
	t.Member = nil
	t.Owned = false
	t.Vals = t.Vals[:0]
	if len(p.free) < maxPoolFree {
		p.free = append(p.free, t)
	}
}

// FreeCount returns the number of recycled tuples the pool holds (0 for the
// nil pool). Tests use it to show that a path neither draws nor leaks tuples.
//
//rumor:allow deadexport test instrument: pool recycling tests
func (p *Pool) FreeCount() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// Clone returns a deep copy of t (values and membership) drawn from the
// pool.
func (p *Pool) Clone(t *Tuple) *Tuple {
	if p == nil {
		return t.Clone()
	}
	c := p.Get(t.TS, len(t.Vals))
	copy(c.Vals, t.Vals)
	if t.Member != nil {
		c.Member = t.Member.Clone()
	}
	return c
}

// WithMember returns a shallow copy of t (sharing Vals) carrying the given
// membership, drawn from the pool.
func (p *Pool) WithMember(t *Tuple, m *bitset.Set) *Tuple {
	if p == nil {
		return t.WithMember(m)
	}
	c := p.Get(0, 0)
	c.TS = t.TS
	c.Vals = t.Vals
	c.Member = m
	return c
}
