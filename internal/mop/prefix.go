package mop

import (
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/stream"
)

// Window-prefix emission, shared by the ;/µ state groups and the join
// groups: the operators of one group differ only in their duration window
// (the s; and s⨝ m-rules, §4), so the group keeps them sorted
// unbounded-first, then by window descending, and a match of age a reaches
// exactly the prefix of operators whose window covers a. In plain mode (no
// channel position anywhere in the group) that prefix is the match's whole
// target set, which lets a result that is only counted go unbuilt.

// windowOp is one operator of a window-shared group: its duration window
// (<= 0: unbounded) and its wiring.
type windowOp struct {
	window   int64
	leftPos  int // membership position on the left channel, -1 for plain
	rightPos int // membership position on the right channel, -1 for plain
	tg       target
}

// Sinks is the engine's binding of an m-op's output ports to the result
// sinks behind them. The engine binds before the first drain after every
// routing rebuild, and whenever a result callback has been installed or
// removed.
type Sinks struct {
	// Count is, per output port, the sink counter of a count-only port (an
	// edge with no consumer and one plain sink). It is nil while a result
	// callback is installed, since every result must then be delivered.
	Count []*int64
	// SinkOnly is, per output port, whether the edge has sinks and no
	// consumer.
	SinkOnly []bool
	// Park takes an Owned result bound for the sinks of every port in
	// ports: the engine delivers it to them in order when the activation
	// returns, then recycles it into ParkPool, which the result is drawn
	// from. ports stays valid for the binding's life.
	Park     func(t *stream.Tuple, ports []int)
	ParkPool *stream.Pool
}

// PrefixMOp is implemented by the m-ops whose groups emit by window
// prefix.
type PrefixMOp interface {
	MOp
	// BindSinks chooses each plain group's emission: counted when every
	// operator's port is count-only, parked once per match when every port
	// is sink-only, one emission per target otherwise. It reports whether
	// some group counts, so the engine knows to call FlushCounts.
	BindSinks(s Sinks) bool
	// FlushCounts folds the matches counted since the last flush into the
	// sink counters and returns the number of results they stand for.
	FlushCounts() int64
}

// prefixMode is how a plain group's matches leave the m-op.
type prefixMode uint8

const (
	prefixEmit  prefixMode = iota // one emit per target
	prefixCount                   // counted, never built (plain groups only)
	prefixPark                    // built once, parked once with its prefix (plain groups only)
)

// prefixEmitter is the emission half of a window-shared group.
type prefixEmitter struct {
	// ops is sorted unbounded-first, then by window descending (seal), so
	// the operators covering an age are a prefix, found by binary search.
	ops []windowOp
	// plain: no operator has a channel position on either input or on
	// its output, so a match's targets are exactly a prefix of ops. Then
	// ports[i] is ops[i]'s output port, and a bound prefix is a slice of
	// it.
	plain bool
	ports []int
	pool  *stream.Pool // engine tuple pool for output tuples
	// tgScratch collects a match's plain targets and chanAdds counts its
	// channel targets (collect); send emits and resets both.
	tgScratch []target
	chanAdds  int

	mode prefixMode
	// hist[k] counts the matches since the last flush that reached exactly
	// ops[:k]; kmax is the largest such k. count is the bound Sinks.Count.
	// Used in prefixCount mode.
	hist  []int64
	kmax  int
	count []*int64
	// flush is the owning m-op's dirty list; queued is whether this group
	// is on it.
	flush  *countFlush
	queued bool
	// park and parkPool are the bound Sinks.Park and Sinks.ParkPool, used
	// in prefixPark mode.
	park     func(t *stream.Tuple, ports []int)
	parkPool *stream.Pool
}

// seal sorts the operators for prefix search and returns the permutation
// applied (nil for a single operator), so the caller can keep co-sorted
// slices aligned.
func (pe *prefixEmitter) seal() []int {
	var ord []int
	if len(pe.ops) > 1 {
		ord = windowOrder(len(pe.ops), func(i int) int64 { return pe.ops[i].window })
		pe.ops = permuteOps(pe.ops, ord)
	}
	pe.plain = true
	for _, o := range pe.ops {
		if o.leftPos >= 0 || o.rightPos >= 0 || o.tg.pos >= 0 {
			pe.plain = false
		}
	}
	if pe.plain {
		pe.ports = make([]int, len(pe.ops))
		for i, o := range pe.ops {
			pe.ports[i] = o.tg.port
		}
	}
	return ord
}

// windowOrder returns the index permutation sorting operators
// unbounded-first, then by window descending (stable).
func windowOrder(n int, window func(i int) int64) []int {
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool {
		wi, wj := window(ord[a]), window(ord[b])
		if (wi <= 0) != (wj <= 0) {
			return wi <= 0
		}
		return wi > wj
	})
	return ord
}

func permuteOps[T any](s []T, ord []int) []T {
	out := make([]T, len(s))
	for i, j := range ord {
		out[i] = s[j]
	}
	return out
}

func permuteInts(s []int, ord []int) []int {
	if ord == nil || len(s) == 0 {
		return s
	}
	return permuteOps(s, ord)
}

// prefix returns the number of operators whose window covers age.
func (pe *prefixEmitter) prefix(age int64) int {
	lo, hi := 0, len(pe.ops)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w := pe.ops[mid].window; w <= 0 || w >= age {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bind chooses the group's emission mode for s (see PrefixMOp.BindSinks)
// and reports whether the group counts.
func (pe *prefixEmitter) bind(s Sinks, f *countFlush) bool {
	pe.mode, pe.count, pe.park, pe.parkPool, pe.flush = prefixEmit, nil, nil, nil, nil
	if !pe.plain || len(pe.ops) == 0 {
		return false
	}
	counted, parked := s.Count != nil, s.Park != nil
	for _, p := range pe.ports {
		counted = counted && s.Count[p] != nil
		parked = parked && s.SinkOnly[p]
	}
	switch {
	case counted:
		pe.mode, pe.count, pe.flush = prefixCount, s.Count, f
		if len(pe.hist) != len(pe.ops)+1 {
			pe.hist = make([]int64, len(pe.ops)+1)
		}
		return true
	case parked:
		pe.mode, pe.park, pe.parkPool = prefixPark, s.Park, s.ParkPool
	}
	return false
}

// match emits l ++ r at time ts to every operator whose window covers age
// and whose memberships include the pair (lm and rm: the left and right
// memberships). A plain group's target set is the prefix itself, so when
// bound to count or to park it skips the per-target scan.
//
//rumor:owner
func (pe *prefixEmitter) match(l, r *stream.Tuple, lm, rm *bitset.Set, age, ts int64, ce *chanEmitter, emit Emit) {
	k := pe.prefix(age)
	if k == 0 {
		return
	}
	switch pe.mode {
	case prefixCount:
		pe.hist[k]++
		pe.kmax = max(pe.kmax, k)
		if !pe.queued {
			pe.queued = true
			pe.flush.dirty = append(pe.flush.dirty, pe)
		}
		return
	case prefixPark:
		out := concatTuples(pe.parkPool, l, r, ts)
		out.Owned = true
		pe.park(out, pe.ports[:k])
		return
	}
	for i := range pe.ops[:k] {
		pe.collect(&pe.ops[i], lm, rm, ce)
	}
	pe.send(l, r, ts, ce, emit)
}

// collect adds o to the match's targets when the pair's memberships (lm
// and rm) include it: a plain target to tgScratch, a channel target to ce.
func (pe *prefixEmitter) collect(o *windowOp, lm, rm *bitset.Set, ce *chanEmitter) {
	if (o.leftPos >= 0 && !lm.Test(o.leftPos)) || (o.rightPos >= 0 && !rm.Test(o.rightPos)) {
		return
	}
	if o.tg.pos < 0 {
		pe.tgScratch = append(pe.tgScratch, o.tg)
	} else {
		ce.add(o.tg)
		pe.chanAdds++
	}
}

// send emits l ++ r at time ts to the plain targets collected for the
// match and flushes the channel targets it added to ce. The output is
// Owned when it goes out exactly once.
//
//rumor:owner
func (pe *prefixEmitter) send(l, r *stream.Tuple, ts int64, ce *chanEmitter, emit Emit) {
	tgs, chanAdds := pe.tgScratch, pe.chanAdds
	pe.tgScratch, pe.chanAdds = tgs[:0], 0
	if len(tgs) == 0 && chanAdds == 0 {
		return
	}
	out := concatTuples(pe.pool, l, r, ts)
	if len(tgs) == 1 && chanAdds == 0 {
		out.Owned = true
	}
	for _, tg := range tgs {
		emit(tg.port, out)
	}
	ce.flush(out, emit, len(tgs) == 0)
}

// countFlush is an m-op's list of groups holding counted matches.
type countFlush struct {
	dirty []*prefixEmitter
}

// reserve sizes the list for n counting groups, so that queuing a group on
// the match path never allocates.
func (f *countFlush) reserve(n int) { f.dirty = slices.Grow(f.dirty[:0], n) }

// flushCounts folds every dirty group's histogram into its sink counters
// by one suffix sum (ops[i] gains the matches that reached beyond i) and
// returns the number of results added.
func (f *countFlush) flushCounts() int64 {
	var total int64
	for _, pe := range f.dirty {
		var run int64
		for k := pe.kmax; k >= 1; k-- {
			run += pe.hist[k]
			pe.hist[k] = 0
			*pe.count[pe.ports[k-1]] += run
			total += run
		}
		pe.kmax, pe.queued = 0, false
	}
	clear(f.dirty)
	f.dirty = f.dirty[:0]
	return total
}
