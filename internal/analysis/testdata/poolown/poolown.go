// Package poolown is a rumorvet fixture: every // want comment marks a
// seeded violation of the pooled-value ownership contract.
package poolown

import "repro/internal/stream"

var pool = stream.NewPool()
var bp = stream.NewBlockPool()

func useAfterPutRead() int64 {
	t := pool.Get(1, 2)
	pool.Put(t)
	return t.TS // want "used after it was released"
}

func useAfterPut() {
	t := pool.Get(1, 2)
	pool.Put(t)
	t.Vals[0] = 9 // want "used after it was released"
}

func blockUseAfterPut() int {
	b := bp.Get(4, 2)
	bp.Put(b)
	return b.SelCount() // want "used after it was released"
}

func conditionalPutOK(flag bool) int64 {
	t := pool.Get(1, 2)
	if flag {
		pool.Put(t)
		return 0
	}
	defer pool.Put(t)
	return t.TS // ok: the Put stayed inside its branch
}

func reassignmentRevives() int64 {
	t := pool.Get(1, 1)
	pool.Put(t)
	t = pool.Get(2, 1)
	defer pool.Put(t)
	return t.TS // ok: t was re-acquired
}

func deferredPutOK() int64 {
	t := pool.Get(1, 1)
	defer pool.Put(t)
	return t.TS // ok: deferred Put runs at exit
}

func ownedOutsideOwner() {
	t := pool.Get(1, 1)
	t.Owned = true // want "Owned set outside"
	pool.Put(t)
}

//rumor:owner
func ownedInsideOwner() *stream.Tuple {
	t := pool.Get(1, 1)
	t.Owned = true // ok: declared owner
	return t
}

func sendPooled(ch chan *stream.Tuple) {
	t := pool.Get(1, 1)
	ch <- t // want "sent across a channel"
}

//rumor:owner
func sendPooledOwner(ch chan *stream.Tuple) {
	ch <- pool.Get(1, 1) // ok: declared owner
}

func waived() int64 {
	t := pool.Get(1, 1)
	pool.Put(t)
	//rumor:allow poolown
	return t.TS // ok: explicitly waived
}
