package stream

import "testing"

// TestBlockPoolBorrowCycleAllocFree pins the steady-state cost of the
// zero-copy ingest path: wrapping the caller's columns, deriving one output
// block from the wrapped one and returning both is allocation-free once the
// pool holds two headers. Put used to drop a borrowing block's outer column
// slice, so every Wrap and Derive re-allocated it.
func TestBlockPoolBorrowCycleAllocFree(t *testing.T) {
	const rows, arity = 256, 10
	ts := make([]int64, rows)
	cols := make([][]int64, arity)
	for a := range cols {
		cols[a] = make([]int64, rows)
	}
	bp := NewBlockPool()
	cycle := func() {
		in := bp.Wrap(ts, cols, 0, rows)
		out := bp.Derive(in)
		out.Sel[0] |= 1 << 3
		bp.Put(out)
		bp.Put(in)
	}
	cycle() // warm: the two headers and their Sel/Cols capacity
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm Wrap → Derive → Put → Put cycle allocates %v times, want 0", n)
	}
}

// TestBlockPoolPutDropsBorrowedColumns checks the other half of that fix:
// keeping the outer slice's capacity must not keep the caller's column
// arrays reachable from a pooled header.
func TestBlockPoolPutDropsBorrowedColumns(t *testing.T) {
	bp := NewBlockPool()
	b := bp.Wrap([]int64{1, 2}, [][]int64{{3, 4}, {5, 6}}, 0, 2)
	bp.Put(b)
	if b.TS != nil || len(b.Cols) != 0 {
		t.Fatalf("pooled borrowing block still exposes ts=%v cols=%v", b.TS, b.Cols)
	}
	for a, col := range b.Cols[:cap(b.Cols)] {
		if col != nil {
			t.Fatalf("pooled borrowing block retains borrowed column %d", a)
		}
	}
}

// TestMemberSetInterns checks that equal membership words map to one shared
// set, singletons to the global interned ones, and the zero word to nil.
func TestMemberSetInterns(t *testing.T) {
	bp := NewBlockPool()
	if bp.MemberSet(0) != nil {
		t.Fatal("zero word must map to a nil membership")
	}
	a, b := bp.MemberSet(0b101), bp.MemberSet(0b110)
	if a2 := bp.MemberSet(0b101); a2 != a {
		t.Fatal("equal words must share one set")
	}
	if !a.Test(0) || a.Test(1) || !a.Test(2) || !b.Test(1) || !b.Test(2) || b.Test(0) {
		t.Fatalf("wrong content: %v %v", a, b)
	}
	if s := bp.MemberSet(1 << 5); !s.Test(5) || s != bp.MemberSet(1<<5) {
		t.Fatal("singleton word must map to the interned singleton")
	}
}
