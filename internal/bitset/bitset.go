// Package bitset provides a compact dynamic bit set used to represent
// channel-tuple membership components (which streams a channel tuple
// belongs to) and operator masks inside m-ops.
//
// The zero value of Set is an empty set ready to use. Sets grow on demand;
// all operations treat missing words as zero. A nil *Set behaves like the
// empty set for read operations.
//
// Memberships are small in practice — a channel rarely unions more than 64
// streams (§3.2 gates channel encoding on sharing degree) — so Set stores
// bits 0..63 in an inline word and only allocates a spill slice once a
// higher bit is addressed. Building, cloning, and combining single-word
// sets is allocation-free beyond the Set header itself.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a growable bit set. Bits are indexed from 0.
//
// Representation: while spill is nil the set's content is the inline word
// (bits 0..63). Once a bit ≥ 64 is addressed the content moves to spill
// (which then includes word 0); the inline word is ignored from then on.
type Set struct {
	word  uint64
	spill []uint64
}

// New returns a set with capacity for at least n bits preallocated. Sets of
// up to 64 bits are stored inline and need no preallocation.
func New(n int) *Set {
	if n <= wordBits {
		return &Set{}
	}
	return &Set{spill: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a set with exactly the given bits set. Bit patterns
// that fit the inline word allocate no slice; larger patterns pre-size the
// spill storage for the maximum index instead of growing bit by bit.
func FromIndices(idx ...int) *Set {
	max := -1
	for _, i := range idx {
		if i < 0 {
			panic("bitset: negative index")
		}
		if i > max {
			max = i
		}
	}
	s := &Set{}
	if max >= wordBits {
		s.spill = make([]uint64, max/wordBits+1)
	}
	for _, i := range idx {
		s.Set(i)
	}
	return s
}

// singletons interns the 64 single-bit inline sets so that hot paths (e.g.
// source-membership encoding in the engine) can share one immutable set per
// position instead of allocating per tuple.
var singletons [wordBits]Set

func init() {
	for i := range singletons {
		singletons[i].word = 1 << uint(i)
	}
}

// Singleton returns a set containing exactly bit i. For i < 64 the returned
// set is interned and shared: the caller MUST treat it as read-only (Clone
// before mutating). Larger indices return a fresh set.
func Singleton(i int) *Set {
	if i >= 0 && i < wordBits {
		return &singletons[i]
	}
	return FromIndices(i)
}

// FromWord returns a set whose bits 0..63 are the bits of w. It is the
// inverse of InlineWord, used by the vectorized execution path to rebuild a
// membership set from a block's packed membership-word column.
func FromWord(w uint64) *Set { return &Set{word: w} }

// InlineWord returns the set's content as a single 64-bit word. ok is false
// when the set has spilled past the inline word (bits ≥ 64 may be set) —
// the signal that a membership cannot ride in a block's one-word-per-row
// membership column and the tuple must take the scalar path. A nil set is
// the empty word.
func (s *Set) InlineWord() (w uint64, ok bool) {
	if s == nil {
		return 0, true
	}
	if s.spill == nil {
		return s.word, true
	}
	for i, sw := range s.spill {
		if i > 0 && sw != 0 {
			return 0, false
		}
	}
	return s.spill[0], true
}

// Spilled reports whether the set has outgrown the inline word and spilled
// to a heap-allocated word slice — the membership-word spill signal the
// telemetry layer and the adaptive optimizer track (wide channels are a
// hint to split or re-channelize).
func (s *Set) Spilled() bool { return s != nil && s.spill != nil }

// view returns the set's backing words without allocating: inline sets are
// materialized into the caller-provided scratch word.
func (s *Set) view(scratch *[1]uint64) []uint64 {
	if s == nil {
		return nil
	}
	if s.spill != nil {
		return s.spill
	}
	scratch[0] = s.word
	return scratch[:]
}

// toSpill moves an inline set to spill storage with room for n words.
func (s *Set) toSpill(n int) {
	if n < 1 {
		n = 1
	}
	sp := make([]uint64, n)
	sp[0] = s.word
	s.spill = sp
}

// ensure grows the storage so that bit i is addressable, spilling the
// inline word if needed.
func (s *Set) ensure(i int) {
	w := i/wordBits + 1
	if s.spill == nil {
		if i < wordBits {
			return
		}
		s.toSpill(w)
		return
	}
	if len(s.spill) < w {
		nw := make([]uint64, w)
		copy(nw, s.spill)
		s.spill = nw
	}
}

// Set sets bit i. Panics if i is negative.
func (s *Set) Set(i int) {
	if i < 0 {
		panic("bitset: negative index")
	}
	if s.spill == nil && i < wordBits {
		s.word |= 1 << uint(i)
		return
	}
	s.ensure(i)
	s.spill[i/wordBits] |= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
//
//rumor:noalloc
func (s *Set) Test(i int) bool {
	if s == nil || i < 0 {
		return false
	}
	if s.spill == nil {
		return i < wordBits && s.word&(1<<uint(i)) != 0
	}
	if i/wordBits >= len(s.spill) {
		return false
	}
	return s.spill[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
//
//rumor:noalloc
func (s *Set) Count() int {
	if s == nil {
		return 0
	}
	if s.spill == nil {
		return bits.OnesCount64(s.word)
	}
	n := 0
	for _, w := range s.spill {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
//
//rumor:noalloc
func (s *Set) Empty() bool {
	if s == nil {
		return true
	}
	if s.spill == nil {
		return s.word == 0
	}
	for _, w := range s.spill {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s. Cloning an inline set allocates
// only the Set header.
func (s *Set) Clone() *Set {
	if s == nil {
		return &Set{}
	}
	if s.spill == nil {
		return &Set{word: s.word}
	}
	c := &Set{spill: make([]uint64, len(s.spill))}
	copy(c.spill, s.spill)
	return c
}

// Intersects reports whether s ∩ o is non-empty, without allocating.
//
//rumor:noalloc
func (s *Set) Intersects(o *Set) bool {
	if s == nil || o == nil {
		return false
	}
	if s.spill == nil && o.spill == nil {
		return s.word&o.word != 0
	}
	var ss, os [1]uint64
	sw, ow := s.view(&ss), o.view(&os)
	n := len(sw)
	if len(ow) < n {
		n = len(ow)
	}
	for i := 0; i < n; i++ {
		if sw[i]&ow[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in ascending order. It stops early if
// fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	if s == nil {
		return
	}
	var scratch [1]uint64
	for wi, w := range s.view(&scratch) {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Indices returns the set bits in ascending order.
func (s *Set) Indices() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// AppendKey appends the set's canonical key to b and returns the extended
// slice, letting hot paths build map keys in a reused scratch buffer.
// Trailing zero words do not affect the key, and inline vs. spilled
// storage is indistinguishable.
func (s *Set) AppendKey(b []byte) []byte {
	if s == nil {
		return b
	}
	var scratch [1]uint64
	words := s.view(&scratch)
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, words[i], 16)
	}
	return b
}

// String renders the set like "{1,4,9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
