package stream

import (
	"sync"
	"testing"

	"repro/internal/bitset"
)

// TestTuplePoolReuse checks Get/Put recycle value capacity without
// leaking content between users.
func TestTuplePoolReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(1, 3)
	a.Vals[0], a.Vals[1], a.Vals[2] = 10, 11, 12
	a.Member = bitset.FromIndices(0)
	a.Owned = true
	p.Put(a)

	b := p.Get(2, 2)
	if b != a {
		t.Fatal("Get did not reuse the tuple Put returned")
	}
	if b.TS != 2 || len(b.Vals) != 2 {
		t.Fatalf("got ts=%d len=%d", b.TS, len(b.Vals))
	}
	if b.Member != nil || b.Owned {
		t.Fatal("pooled tuple leaked a membership or an Owned flag")
	}
	p.Put(b)

	// Growing past recycled capacity must reallocate, not panic.
	c := p.Get(3, 8)
	if len(c.Vals) != 8 {
		t.Fatalf("len=%d want 8", len(c.Vals))
	}
	p.Put(c)
	if p.FreeCount() != 1 {
		t.Fatalf("FreeCount = %d, want 1", p.FreeCount())
	}
}

// TestClonePooled checks Clone draws from the pool and is independent.
func TestClonePooled(t *testing.T) {
	p := NewPool()
	orig := NewTuple(7, 1, 2, 3)
	c := p.Clone(orig)
	c.Vals[0] = 99
	if orig.Vals[0] != 1 {
		t.Fatal("clone shares values with original")
	}
	p.Put(c)
	// The released clone's capacity should be reusable.
	d := p.Get(8, 3)
	if d != c {
		t.Fatal("Get did not reuse the released clone")
	}
	d.Vals[0] = 42
	if orig.Vals[0] != 1 {
		t.Fatal("pool reuse aliased the original tuple")
	}
	p.Put(d)
}

// TestTuplePoolRace runs one pool per goroutine, as one per engine, and
// hands every tuple a goroutine draws to the next goroutine, which checks
// it and puts it into its own pool, as a rebalance moves stored state
// between engines; run with -race. A pool shared behind the scenes, or a
// tuple recycled while another goroutine still reads it, shows up as a
// corrupted signature or a race report.
func TestTuplePoolRace(t *testing.T) {
	const goroutines = 4
	const rounds = 2000
	// One slot per link: each goroutine sends a round's tuple before it
	// receives its predecessor's, so no send waits on a receive that
	// waits on it.
	links := make([]chan *Tuple, goroutines)
	for g := range links {
		links[g] = make(chan *Tuple, 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(sig int64, out chan<- *Tuple, in <-chan *Tuple) {
			defer wg.Done()
			p := NewPool()
			prev := (sig + goroutines - 1) % goroutines
			for i := 0; i < rounds; i++ {
				n := 1 + i%5
				tu := p.Get(sig, n)
				for j := range tu.Vals {
					tu.Vals[j] = sig*1000 + int64(j)
				}
				out <- p.Clone(tu)
				p.Put(tu)
				got := <-in
				for j, v := range got.Vals {
					if got.TS != prev || v != prev*1000+int64(j) {
						t.Errorf("goroutine %d: tuple from %d corrupted at %d", sig, prev, j)
						break
					}
				}
				p.Put(got)
			}
		}(int64(g), links[g], links[(g+goroutines-1)%goroutines])
	}
	wg.Wait()
}
