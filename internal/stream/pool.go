package stream

import "repro/internal/bitset"

// Pool recycles tuple headers (and their value capacity) within one
// single-threaded execution domain — one engine replica, i.e. one shard
// worker. It is the only tuple recycler. A Pool is NOT safe for concurrent
// use: each engine owns one and touches it only from the goroutine
// currently driving that engine (the shard worker, or, at one inline
// shard, the pusher holding the router's lock). Steady-state recycling
// then costs a slice pop/push with no cross-CPU pool traffic at high
// shard counts.
//
// Pools are plain recyclers, not owners: a tuple drawn from one pool may
// be released into another without harm, so state migrated between engine
// replicas by a rebalance simply continues its life in the destination
// engine's pool, and a tuple no pool takes back is left to the garbage
// collector.
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
// slot). Pair with Put once the tuple is provably dead; a tuple that was
// emitted into an engine may be retained by stateful m-ops and must NOT be
// put back by its producer.
//
//rumor:noalloc
func (p *Pool) Get(ts int64, n int) *Tuple {
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

// Put returns t to the pool. The caller must own both t and its Vals
// array exclusively: no other goroutine, m-op buffer, queue, or shallow
// copy (WithMember shares Vals) may still reference either, since the
// value capacity is recycled into future Get results.
//
//rumor:noalloc
func (p *Pool) Put(t *Tuple) {
	t.Member = nil
	t.Owned = false
	t.Vals = t.Vals[:0]
	if len(p.free) < maxPoolFree {
		p.free = append(p.free, t)
	}
}

// FreeCount returns the number of recycled tuples the pool holds. Tests
// use it to show that a path neither draws nor leaks tuples.
//
//rumor:allow deadexport test instrument: pool recycling tests
func (p *Pool) FreeCount() int {
	return len(p.free)
}

// Clone returns a deep copy of t (values and membership) drawn from the
// pool.
func (p *Pool) Clone(t *Tuple) *Tuple {
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
	c := p.Get(0, 0)
	c.TS = t.TS
	c.Vals = t.Vals
	c.Member = m
	return c
}
