package wire

import (
	"cmp"
	"maps"
	"slices"
	"sync"
	"unsafe"
)

// A message is declared once, as a function over a *Codec and a pointer to
// the message's value. Each line of a declaration names a field number, a
// primitive and a pointer:
//
//	func groupFields(c *wire.Codec, g *mop.GroupRef) {
//		wire.Varint(c, 1, &g.OpID)
//		c.Ints(2, &g.OpIDs)
//		c.Ints(3, &g.Sides)
//	}
//
// Encoding walks the declaration once per message and writes each field in
// the order of its lines. Decoding walks it once per Codec, over a zero
// value, and records a table: for each line, the field it reads, a reader
// for its values and its place as an offset into the message's value.
// Reader.Fields then hands each field of a message to the line the table
// has for its number, and skips a field no line reads. A field that is
// repeated on the wire is appended to, any other field is overwritten by
// its last occurrence.
//
// A line's pointer must point into the message's value, or into the value
// a Within names; recording a line that does not panics. A field number
// or'ed with OmitEmpty is not written when its value is empty (zero, "",
// nil or of length 0). Three hooks cover what a field list cannot say:
// Init, a declaration's first line, sets a decoded message's defaults
// before its fields are read, Check validates it after, and MessagesOnly
// skips every field that is not a nested message. Init and Check are given
// the message and refer to nothing else. Tree bounds the depth of a
// recursive message.

// OmitEmpty marks a field of Varint, Bool, String, Blob, Ints or Int64s
// that is not written when its value is empty.
const OmitEmpty = 1 << 30

// The field numbers of Init and Check lines: those on the wire are never
// negative.
const (
	fieldCheck = -1
	fieldInit  = -2
)

// Codec encodes a message into its bytes or decodes one, by walking the
// message's declaration. A Codec that is not decoding is an encoder's
// output buffer, which is why Buffer is its other name.
type Codec struct {
	b []byte // encoding: the bytes written

	// Decoding state.
	dec    bool
	r      Reader                    // the message being read
	wt     int                       // the wire type of the field at hand
	tables map[unsafe.Pointer]*table // by declaration (tableOf)
	slabs  []any                     // one *slab[T] per type of node the decode made
	depth  int                       // the messages a Tree field encloses this one in
	err    error                     // the first error, decoding or encoding

	// The walk recording a table: the table, the zero value walked, its
	// size and, inside a Within, the offset of the pointer to it.
	rec  *table
	base unsafe.Pointer
	size uintptr
	via  int32
}

// Buffer is a Codec used as an encoder's output.
type Buffer = Codec

// A table is a declaration as a decoder records it: its field lines in
// declaration order, its Init and Check lines, and whether MessagesOnly.
type table struct {
	lines, inits, checks []line
	only                 bool
}

// A line reads one occurrence of its field into its place: an offset into
// the message's value or, from a Within, into the value that the pointer
// at offset via (else -1) points to.
type line struct {
	field, off, via int32
	read            func(c *Codec, p unsafe.Pointer) error
}

// add records, while decoding, the line that reads field into p with read.
func (c *Codec) add(field int, p unsafe.Pointer, read func(*Codec, unsafe.Pointer) error) {
	l, lines := line{int32(field &^ OmitEmpty), c.offset(p), c.via, read}, &c.rec.lines
	switch field {
	case fieldInit:
		lines = &c.rec.inits
	case fieldCheck:
		lines = &c.rec.checks
	}
	*lines = append(*lines, l)
}

// offset returns p's offset into the value the recording walk is over.
func (c *Codec) offset(p unsafe.Pointer) int32 {
	off := uintptr(p) - uintptr(c.base)
	if off >= c.size {
		panic("wire: a declaration's line points outside its message")
	}
	return int32(off)
}

// place returns the place of l in the message at base.
func (l *line) place(base unsafe.Pointer) unsafe.Pointer {
	if l.via >= 0 {
		base = *(*unsafe.Pointer)(unsafe.Add(base, l.via))
	}
	return unsafe.Add(base, l.off)
}

// tableOf returns decl's table on c, recording it the first time c meets
// decl. A declaration is known by its function value, so a closure made
// anew for each decode is a new declaration each time; c keeps at most 256.
func tableOf[T any](c *Codec, decl func(*Codec, *T)) *table {
	key := *(*unsafe.Pointer)(unsafe.Pointer(&decl))
	t := c.tables[key]
	if t == nil {
		if len(c.tables) >= 256 || c.tables == nil {
			c.tables = make(map[unsafe.Pointer]*table)
		}
		t = record(c, decl)
		c.tables[key] = t
	}
	return t
}

// record walks decl over a zero T and returns the table it records.
func record[T any](c *Codec, decl func(*Codec, *T)) *table {
	zero, t := new(T), new(table)
	c.rec, c.base, c.size, c.via = t, unsafe.Pointer(zero), unsafe.Sizeof(*zero), -1
	decl(c, zero)
	c.rec = nil
	return t
}

// Encode appends v's message, as decl declares it, to c and returns the
// first encoding error.
func Encode[T any](c *Codec, v *T, decl func(*Codec, *T)) error {
	c.err = nil
	decl(c, v)
	return c.err
}

// Marshal returns v's message as decl declares it.
func Marshal[T any](v *T, decl func(*Codec, *T)) ([]byte, error) {
	var c Codec
	err := Encode(&c, v, decl)
	return c.b, err
}

// Decode decodes the message p into v as decl declares it, reusing c's
// decoding state and tables; c's encoded bytes are kept. Byte fields of v
// are views into p.
func Decode[T any](c *Codec, p []byte, v *T, decl func(*Codec, *T)) error {
	c.dec, c.depth, c.err = true, 0, nil
	err := sub(c, p, v, decl)
	clear(c.slabs)
	c.dec, c.r, c.slabs = false, Reader{}, c.slabs[:0]
	return err
}

// codecs are the Codecs Unmarshal decodes on, kept for their tables.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

// Unmarshal decodes the message p into v as decl declares it.
func Unmarshal[T any](p []byte, v *T, decl func(*Codec, *T)) error {
	c := codecs.Get().(*Codec)
	defer codecs.Put(c)
	return Decode(c, p, v, decl)
}

// sub decodes the message p into v on c, and returns c to its place in the
// message it was decoding.
func sub[T any](c *Codec, p []byte, v *T, decl func(*Codec, *T)) error {
	return c.decode(p, unsafe.Pointer(v), tableOf(c, decl))
}

// decode decodes the message p into the value at base as t lays it out:
// its Init lines, a line per field, then its Check lines.
func (c *Codec) decode(p []byte, base unsafe.Pointer, t *table) error {
	for _, l := range t.inits {
		c.fail(l.read(c, l.place(base)))
	}
	outer, at := c.r, 0 // at: the line of the field before; fields come in line order
	c.r = Reader{b: p}
	c.fail(c.r.Fields(func(f, wt int) error {
		if t.only && wt != wtBytes {
			return nil
		}
		for range t.lines {
			if l := &t.lines[at]; int(l.field) == f {
				c.wt = wt
				c.fail(l.read(c, l.place(base)))
				return c.err
			}
			if at++; at == len(t.lines) {
				at = 0
			}
		}
		return nil
	}))
	for i := 0; i < len(t.checks) && c.err == nil; i++ {
		c.fail(t.checks[i].read(c, t.checks[i].place(base)))
	}
	c.r = outer
	return c.err
}

// fail records err, unless it is nil: a decoder writes c.err only on an
// error, which keeps pointer writes into the Codec off its common path.
func (c *Codec) fail(err error) {
	if err != nil {
		c.err = err
	}
}

// Init runs fn on the message v before a decoder reads its fields: fn sets
// what an absent field leaves in the message. It is a declaration's first
// line.
func Init[T any](c *Codec, v *T, fn func(*T)) {
	if c.dec {
		c.add(fieldInit, unsafe.Pointer(v), func(_ *Codec, p unsafe.Pointer) error { fn((*T)(p)); return nil })
	}
}

// Check runs fn on the message v once a decoder has read all of its
// fields; an error fn returns fails the decode.
func Check[T any](c *Codec, v *T, fn func(*T) error) {
	if c.dec {
		c.add(fieldCheck, unsafe.Pointer(v), func(_ *Codec, p unsafe.Pointer) error { return fn((*T)(p)) })
	}
}

// MessagesOnly declares that every field of the message is a nested
// message: a decoder skips a field of another wire type.
func (c *Codec) MessagesOnly() {
	if c.dec {
		c.rec.only = true
	}
}

// Within declares, as decl declares them, lines of the message at hand
// whose places lie in **v, a value of its own (one the message's Init
// made, say).
func Within[T any](c *Codec, v **T, decl func(*Codec, *T)) {
	if !c.dec {
		decl(c, *v)
		return
	}
	zero, base, size := new(T), c.base, c.size
	c.via, c.base, c.size = c.offset(unsafe.Pointer(v)), unsafe.Pointer(zero), unsafe.Sizeof(*zero)
	decl(c, zero)
	c.via, c.base, c.size = -1, base, size
}

type integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint64
}

// Varint declares an integer field (a zigzag varint).
func Varint[T integer](c *Codec, field int, p *T) { VarintIn(c, field, p, 0, -1, "") }

// VarintIn declares an integer field whose value lies in [lo, hi]: a
// decoded value outside it is corrupt, named what. An empty range, as
// Varint's, is not checked.
func VarintIn[T integer](c *Codec, field int, p *T, lo, hi int64, what string) {
	if !c.dec {
		if *p != 0 || field&OmitEmpty == 0 {
			c.PutVarintField(field&^OmitEmpty, int64(*p))
		}
		return
	}
	c.add(field, unsafe.Pointer(p), func(c *Codec, p unsafe.Pointer) error {
		v, err := c.r.Varint()
		*(*T)(p) = T(v)
		if err == nil && lo <= hi && (v < lo || v > hi) {
			err = corrupt("%s %d", what, v)
		}
		return err
	})
}

// scalar declares a field that read reads into *p: a decoder records it,
// and an encoder learns whether to write *p, which is empty or not.
func scalar[T any](c *Codec, field int, p *T, empty bool, read func(*Reader) (T, error)) bool {
	if c.dec {
		c.add(field, unsafe.Pointer(p), func(c *Codec, p unsafe.Pointer) (err error) {
			*(*T)(p), err = read(&c.r)
			return err
		})
	}
	return !c.dec && (!empty || field&OmitEmpty == 0)
}

// Bool declares a boolean field, a varint of 1 or 0.
func (c *Codec) Bool(field int, p *bool) {
	if scalar(c, field, p, !*p, func(r *Reader) (bool, error) { v, err := r.Varint(); return v != 0, err }) {
		var v int64
		if *p {
			v = 1
		}
		c.PutVarintField(field&^OmitEmpty, v)
	}
}

// String declares a string field.
func (c *Codec) String(field int, p *string) {
	if scalar(c, field, p, *p == "", (*Reader).String) {
		c.PutStringField(field&^OmitEmpty, *p)
	}
}

// Strings declares a repeated string field.
func (c *Codec) Strings(field int, p *[]string) {
	if c.dec {
		c.add(field, unsafe.Pointer(p), func(c *Codec, p unsafe.Pointer) error {
			s, err := c.r.String()
			*(*[]string)(p) = append(*(*[]string)(p), s)
			return err
		})
		return
	}
	for _, s := range *p {
		if s != "" || field&OmitEmpty == 0 {
			c.PutStringField(field&^OmitEmpty, s)
		}
	}
}

// Blob declares a byte-string field; a decoded one is a view into the
// input.
func (c *Codec) Blob(field int, p *[]byte) {
	if scalar(c, field, p, len(*p) == 0, (*Reader).Bytes) {
		c.PutBytesField(field&^OmitEmpty, *p)
	}
}

// Ints declares a packed list of ints.
func (c *Codec) Ints(field int, p *[]int) {
	if scalar(c, field, p, len(*p) == 0, (*Reader).Ints) {
		c.PutIntsField(field&^OmitEmpty, *p)
	}
}

// Int64s declares a packed list of int64s.
func (c *Codec) Int64s(field int, p *[]int64) {
	if scalar(c, field, p, len(*p) == 0, (*Reader).Int64s) {
		c.PutInt64sField(field&^OmitEmpty, *p)
	}
}

// Column declares a bit-packed column (PutBitPackedField) of the values of
// *p that sel selects. A decoder appends the column to *slab, which lies in
// the same value as *p, and sets *p to those values, capped at their
// length: a slab that grows later leaves *p in its old array, where it
// stays valid.
func (c *Codec) Column(field int, p *[]int64, sel []uint64, slab *[]int64) {
	if !c.dec {
		c.PutBitPackedField(field, *p, sel)
		return
	}
	at := int(c.offset(unsafe.Pointer(slab)) - c.offset(unsafe.Pointer(p)))
	c.add(field, unsafe.Pointer(p), func(c *Codec, p unsafe.Pointer) (err error) {
		*(*[]int64)(p), err = column(c, (*[]int64)(unsafe.Add(p, at)))
		return err
	})
}

// Columns declares a repeated bit-packed column, as Column does one.
func (c *Codec) Columns(field int, p *[][]int64, sel []uint64, slab *[]int64) {
	if !c.dec {
		for _, col := range *p {
			c.PutBitPackedField(field, col, sel)
		}
		return
	}
	at := int(c.offset(unsafe.Pointer(slab)) - c.offset(unsafe.Pointer(p)))
	c.add(field, unsafe.Pointer(p), func(c *Codec, p unsafe.Pointer) error {
		col, err := column(c, (*[]int64)(unsafe.Add(p, at)))
		*(*[][]int64)(p) = append(*(*[][]int64)(p), col)
		return err
	})
}

// column reads a column onto the end of *slab and returns its values.
func column(c *Codec, slab *[]int64) ([]int64, error) {
	start := len(*slab)
	var err error
	if *slab, err = c.r.AppendBitPacked(*slab); err != nil {
		return nil, err
	}
	return (*slab)[start:len(*slab):len(*slab)], nil
}

// Body declares a nested message held as its encoded bytes. An encoder
// given put writes the body in place with it (PutMsgField), otherwise it
// writes *p; a decoder sets *p to a view of the body.
func (c *Codec) Body(field int, p *[]byte, put func(*Codec)) {
	if !c.dec && put != nil {
		c.PutMsgField(field, put)
		return
	}
	c.Blob(field, p)
}

// Msg declares a nested message field holding *v, as decl declares it. A
// decoder decodes each occurrence into *v as it stands, so a message
// whose fields must not carry over from an earlier occurrence resets *v
// in its Init.
func Msg[T any](c *Codec, field int, v *T, decl func(*Codec, *T)) {
	if !c.dec {
		c.PutMsgField(field, func(c *Codec) { decl(c, v) })
		return
	}
	nest(c, field, unsafe.Pointer(v), decl, func(_ *Codec, p unsafe.Pointer) (*T, error) { return (*T)(p), nil })
}

// nest records, while decoding, the line of a nested message field whose
// messages decl declares: elem returns the T that an occurrence of the
// field, at place p, decodes into.
func nest[T any](c *Codec, field int, p unsafe.Pointer, decl func(*Codec, *T), elem func(*Codec, unsafe.Pointer) (*T, error)) {
	var t *table
	c.add(field, p, func(c *Codec, p unsafe.Pointer) error {
		b, err := c.r.Bytes()
		if err != nil {
			return err
		}
		depth := c.depth // elem counts a Tree element a level deeper
		v, err := elem(c, p)
		if err == nil {
			if t == nil {
				t = tableOf(c, decl)
			}
			err = c.decode(b, unsafe.Pointer(v), t)
		}
		c.depth = depth
		return err
	})
}

// Ptr declares a nested message field holding **p, absent when *p is nil.
// A decoder decodes each occurrence into a new value.
func Ptr[T any](c *Codec, field int, p **T, decl func(*Codec, *T)) {
	switch {
	case c.dec:
		nest(c, field, unsafe.Pointer(p), decl, func(c *Codec, p unsafe.Pointer) (*T, error) {
			*(**T)(p) = node[T](c)
			return *(**T)(p), nil
		})
	case *p != nil:
		Msg(c, field, *p, decl)
	}
}

// Msgs declares a repeated nested message field, one message per element
// of *p. A decoder decodes each occurrence into the next element: one that
// *p's capacity holds from an earlier decode keeps its value, for the
// message's Init to reuse or reset; any other starts as a zero value.
func Msgs[T any](c *Codec, field int, p *[]T, decl func(*Codec, *T)) {
	if !c.dec {
		for i := range *p {
			Msg(c, field, &(*p)[i], decl)
		}
		return
	}
	nest(c, field, unsafe.Pointer(p), decl, func(_ *Codec, p unsafe.Pointer) (*T, error) {
		s := (*[]T)(p)
		if n := len(*s); n < cap(*s) {
			*s = (*s)[:n+1]
		} else {
			*s = append(*s, *new(T))
		}
		return &(*s)[len(*s)-1], nil
	})
}

// Tree declares a repeated nested message field of a recursive message:
// each element is one level deeper than the message holding it. A decoder
// fails an element more than maxDepth levels deep with the error deep.
func Tree[T any](c *Codec, field int, p *[]*T, decl func(*Codec, *T), deep string) {
	if !c.dec {
		for _, v := range *p {
			Msg(c, field, v, decl)
		}
		return
	}
	nest(c, field, unsafe.Pointer(p), decl, func(c *Codec, p unsafe.Pointer) (*T, error) {
		if c.depth++; c.depth > maxDepth {
			return nil, corrupt("%s", deep)
		}
		v, s := node[T](c), (*[]*T)(p)
		if cap(*s) == 0 {
			*s = node[[2]*T](c)[:0] // most nodes have one child or two
		}
		*s = append(*s, v)
		return v, nil
	})
}

// entry is one key and value of a Map field.
type entry[K, V any] struct {
	k K
	v V
}

// Map declares a map as a repeated nested message field, one message per
// key in ascending key order, whose fields decl declares over the key and
// its value. A decoder makes *m when it finds the first entry.
func Map[K cmp.Ordered, V any](c *Codec, field int, m *map[K]V, decl func(*Codec, *K, *V)) {
	fields := func(c *Codec, e *entry[K, V]) { decl(c, &e.k, &e.v) }
	if !c.dec {
		var e entry[K, V]
		for _, e.k = range slices.Sorted(maps.Keys(*m)) {
			e.v = (*m)[e.k]
			Msg(c, field, &e, fields)
		}
		return
	}
	var t *table
	c.add(field, unsafe.Pointer(m), func(c *Codec, p unsafe.Pointer) error {
		b, err := c.r.Bytes()
		if err != nil {
			return err
		}
		if t == nil {
			t = record(c, fields)
		}
		e, m := node[entry[K, V]](c), (*map[K]V)(p)
		err = c.decode(b, unsafe.Pointer(e), t)
		if *m == nil {
			*m = make(map[K]V)
		}
		(*m)[e.k] = e.v
		return err
	})
}

// A Conv translates a value to and from the nested message that holds it.
// Put writes the value's message in place into the Codec it is given, and
// records an error there as its encoding error. Dec is given the decoding
// Codec, to decode the bytes on with sub.
type Conv[V any] struct {
	Put func(*Codec, V)
	Dec func(*Codec, []byte) (V, error)
}

// Nested declares a nested message field whose message conv writes from
// and reads into *p. A nil interface value is absent.
func Nested[V any](c *Codec, field int, p *V, conv *Conv[V]) {
	if !c.dec {
		putNested(c, field, *p, conv)
		return
	}
	c.add(field, unsafe.Pointer(p), func(c *Codec, p unsafe.Pointer) error { return nested(c, (*V)(p), conv) })
}

// NestedList declares a repeated field of nested messages that conv
// writes from and reads into the elements of *p.
func NestedList[V any](c *Codec, field int, p *[]V, conv *Conv[V]) {
	if !c.dec {
		for _, v := range *p {
			putNested(c, field, v, conv)
		}
		return
	}
	c.add(field, unsafe.Pointer(p), func(c *Codec, p unsafe.Pointer) error {
		var v V
		err := nested(c, &v, conv)
		*(*[]V)(p) = append(*(*[]V)(p), v)
		return err
	})
}

func putNested[V any](c *Codec, field int, v V, conv *Conv[V]) {
	if any(v) != nil {
		c.PutMsgField(field, func(c *Codec) { conv.Put(c, v) })
	}
}

func nested[V any](c *Codec, p *V, conv *Conv[V]) error {
	raw, err := c.r.Bytes()
	if err == nil {
		*p, err = conv.Dec(c, raw)
	}
	return err
}

// A slab hands out the values of one type that a decode makes: the nodes
// of Ptr and Tree fields, and the map entries and forms read on the way.
// Its chunks grow from 4 values to 128.
type slab[T any] struct {
	free []T
	next int // the length of the next chunk
}

// node returns a new zero T from c's slab of Ts.
func node[T any](c *Codec) *T {
	var s *slab[T]
	for _, a := range c.slabs {
		if s, _ = a.(*slab[T]); s != nil {
			break
		}
	}
	if s == nil {
		s = &slab[T]{next: 4}
		c.slabs = append(c.slabs, s)
	}
	if len(s.free) == 0 {
		s.free, s.next = make([]T, s.next), min(2*s.next, 128)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}
