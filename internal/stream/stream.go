// Package stream defines the data substrate of the RUMOR engine: tuples,
// schemas, and the metadata for streams and channels.
//
// Following the paper's synthetic benchmark (§5.1), attribute values are
// 64-bit integers and every tuple carries a timestamp. A channel tuple
// additionally carries a membership component — a bit vector recording the
// set of streams the tuple belongs to (§3.1).
package stream

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/bitset"
)

// Tuple is a stream or channel tuple. Vals holds the attribute values in
// schema order. Member is nil for a plain stream tuple; for a channel tuple
// it records which of the channel's streams the tuple belongs to, indexed
// by the stream's position in the channel.
//
// Tuples flowing through an engine are immutable: the same tuple object may
// be shared by several channel edges, stored by stateful m-ops, and handed
// to result callbacks.
type Tuple struct {
	TS     int64
	Vals   []int64
	Member *bitset.Set

	// Owned marks a pooled tuple whose header and value buffer are
	// referenced by exactly one in-flight emission: the producing m-op
	// built it from the tuple pool, emitted it on a single output port,
	// and shares its Vals with no other tuple. The engine releases Owned
	// tuples back to the pool once their final delivery retains nothing
	// (see the engine's releasable-edge analysis); everyone else must
	// leave the flag false.
	Owned bool
}

// tuplePool recycles Tuple headers (and their Vals capacity) between
// GetTuple and Release, keeping batch ingestion and operator-private
// buffers off the allocator.
var tuplePool = sync.Pool{New: func() any { return new(Tuple) }}

// NewTuple builds a plain stream tuple.
func NewTuple(ts int64, vals ...int64) *Tuple {
	return &Tuple{TS: ts, Vals: vals}
}

// GetTuple returns a pooled tuple with the given timestamp and a Vals slice
// of length n whose contents are unspecified (callers overwrite every
// slot). Pair with Release once the tuple is provably dead; a tuple that
// was emitted into an engine may be retained by stateful m-ops and must NOT
// be released by its producer.
func GetTuple(ts int64, n int) *Tuple {
	t := tuplePool.Get().(*Tuple)
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

// Release returns t to the tuple pool. The caller must own both t and its
// Vals array exclusively: no other goroutine, m-op buffer, queue, or
// shallow copy (WithMember shares Vals) may still reference either, since
// the value capacity is recycled into future GetTuple results.
//
//rumor:noalloc
func (t *Tuple) Release() {
	t.Member = nil
	t.Owned = false
	t.Vals = t.Vals[:0]
	tuplePool.Put(t)
}

// Clone returns a deep copy of t (values and membership). The copy is drawn
// from the tuple pool, so cloning into a previously Released tuple reuses
// its value capacity.
func (t *Tuple) Clone() *Tuple {
	c := GetTuple(t.TS, len(t.Vals))
	copy(c.Vals, t.Vals)
	if t.Member != nil {
		c.Member = t.Member.Clone()
	}
	return c
}

// WithMember returns a shallow copy of t (sharing Vals) carrying the given
// membership. Used by encoding steps that do not change tuple content. The
// copy is drawn from the tuple pool.
func (t *Tuple) WithMember(m *bitset.Set) *Tuple {
	c := tuplePool.Get().(*Tuple)
	c.TS = t.TS
	c.Vals = t.Vals
	c.Member = m
	c.Owned = false
	return c
}

// ContentEqual reports whether two tuples have the same timestamp and
// attribute values (membership is ignored; it is identity, not content).
//
//rumor:noalloc
func (t *Tuple) ContentEqual(o *Tuple) bool {
	if t.TS != o.TS || len(t.Vals) != len(o.Vals) {
		return false
	}
	for i, v := range t.Vals {
		if v != o.Vals[i] {
			return false
		}
	}
	return true
}

// fnv64 constants for ContentHash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// ContentHash returns a cheap FNV-style integer hash of the tuple's content
// (timestamp and values; membership is identity, not content, and is
// ignored). It replaces string-built keys on hot comparison paths: equal
// contents always hash equal, and collisions are as unlikely as for any
// 64-bit hash.
//
//rumor:noalloc
func (t *Tuple) ContentHash() uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(t.TS)) * fnvPrime
	for _, v := range t.Vals {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}

// ContentKey returns a canonical string for the tuple's content, usable as
// a map key when comparing output multisets in tests. Hot paths should
// prefer ContentHash.
func (t *Tuple) ContentKey() string {
	b := make([]byte, 0, 16+8*len(t.Vals))
	b = append(b, '@')
	b = strconv.AppendInt(b, t.TS, 10)
	b = append(b, '|')
	for i, v := range t.Vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return string(b)
}

// String renders the tuple for debugging.
func (t *Tuple) String() string {
	if t.Member == nil {
		return t.ContentKey()
	}
	return t.ContentKey() + "|m=" + t.Member.String()
}

// Schema names the attributes of a stream. The timestamp is implicit and
// not part of the attribute list.
type Schema struct {
	Name  string
	Attrs []string
	index map[string]int
}

// NewSchema builds a schema. Attribute names must be unique.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	s := &Schema{Name: name, Attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("schema %q: empty attribute name at position %d", name, i)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("schema %q: duplicate attribute %q", name, a)
		}
		s.index[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// Index returns the position of attribute name, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Concat returns the schema of the concatenation of s and o, as produced
// by the binary sequence operators: o's attributes are prefixed to avoid
// collisions, mirroring the paper's schema "padding" discussion (§3.1).
func (s *Schema) Concat(o *Schema, prefix string) *Schema {
	attrs := make([]string, 0, len(s.Attrs)+len(o.Attrs))
	attrs = append(attrs, s.Attrs...)
	for _, a := range o.Attrs {
		na := a
		if s.Index(na) >= 0 {
			na = prefix + a
		}
		attrs = append(attrs, na)
	}
	out, err := NewSchema(s.Name+"_"+o.Name, attrs...)
	if err != nil {
		// Collisions after prefixing: disambiguate deterministically.
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d_%s", i, attrs[i])
		}
		out = MustSchema(s.Name+"_"+o.Name, attrs...)
	}
	return out
}

// UnionCompatible reports whether two schemas have the same arity; channel
// encoding requires union-compatible schemas (§3.1). Attribute names may
// differ (the paper allows renaming).
func (s *Schema) UnionCompatible(o *Schema) bool {
	return s.Arity() == o.Arity()
}
