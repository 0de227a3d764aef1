package wire

import (
	"cmp"
	"maps"
	"slices"
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
// Encoding walks the declaration once and writes each field in the order of
// its lines. Decoding walks it once per field of the input, inside
// Reader.Fields: the one line whose number is the field's reads it, and a
// field no line reads is skipped. A field that is repeated on the wire is
// appended to, any other field is overwritten by its last occurrence.
//
// A field number or'ed with OmitEmpty is not written when its value is
// empty (zero, "", nil or of length 0). Two hooks cover what a field list
// cannot say: Init, a declaration's first line, sets a decoded message's
// defaults before its fields are read, and Check validates it after. Tree
// bounds the depth of a recursive message.

// OmitEmpty marks a field of Varint, Bool, String, Blob, Ints or Int64s
// that is not written when its value is empty.
const OmitEmpty = 1 << 30

// Decoding phases a declaration is walked in besides its fields: field
// numbers on the wire are never negative.
const (
	fieldNone = -1 // a message without fields: its Init lines run
	fieldEnd  = -2 // after the fields: its Check lines run
)

// Codec encodes a message into its bytes or decodes one, by walking the
// message's declaration. A Codec that is not decoding is an encoder's
// output buffer, which is why Buffer is its other name.
type Codec struct {
	b []byte // encoding: the bytes written

	// Decoding state.
	dec    bool
	r      Reader // the message being read
	f      int    // the number of the field at hand, or a phase
	wt     int    // its wire type
	first  bool   // the declaration's first walk over this message
	checks bool   // the declaration has Check lines
	depth  int    // the messages a Tree field encloses this one in
	err    error  // the first error, decoding or encoding
}

// Buffer is a Codec used as an encoder's output.
type Buffer = Codec

// at reports whether a declaration's line for field acts: every line does
// while encoding, the line of the field at hand while decoding. Each
// primitive is this test, which the compiler inlines, around a body that
// acts, so a decoder passes over a declaration's other lines cheaply.
func (c *Codec) at(field int) bool { return !c.dec || c.f == field&^OmitEmpty }

// on is at for a field that cannot be OmitEmpty.
func (c *Codec) on(field int) bool { return !c.dec || c.f == field }

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
// decoding state; c's encoded bytes are kept. Byte fields of v are views
// into p.
func Decode[T any](c *Codec, p []byte, v *T, decl func(*Codec, *T)) error {
	c.dec, c.depth, c.err = true, 0, nil
	err := sub(c, p, v, decl)
	c.dec, c.r = false, Reader{}
	return err
}

// Unmarshal decodes the message p into v as decl declares it.
func Unmarshal[T any](p []byte, v *T, decl func(*Codec, *T)) error {
	var c Codec
	return Decode(&c, p, v, decl)
}

// fail records err, unless it is nil: a decoder writes c.err only on an
// error, which keeps pointer writes into the Codec off its common path.
func (c *Codec) fail(err error) {
	if err != nil {
		c.err = err
	}
}

// Init runs fn before a decoder reads the message's fields: fn sets what
// an absent field leaves in the message. It is a declaration's first line.
func (c *Codec) Init(fn func()) {
	if c.dec && c.first {
		fn()
	}
}

// Check runs fn once a decoder has read all of the message's fields; an
// error fn returns fails the decode.
func (c *Codec) Check(fn func() error) {
	if c.dec && c.f == fieldEnd {
		c.fail(fn())
	}
	c.checks = true
}

type integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint64
}

// Varint declares an integer field (a zigzag varint).
func Varint[T integer](c *Codec, field int, p *T) {
	if c.at(field) {
		*p = T(c.varint(field, int64(*p)))
	}
}

// varint writes v or, decoding, returns the field's value.
func (c *Codec) varint(field int, v int64) int64 {
	switch {
	case c.dec:
		var err error
		v, err = c.r.Varint()
		c.fail(err)
	case v != 0 || field&OmitEmpty == 0:
		c.PutVarintField(field&^OmitEmpty, v)
	}
	return v
}

// VarintIn declares an integer field whose value lies in [lo, hi]: a
// decoded value outside it is corrupt, named what.
func VarintIn[T integer](c *Codec, field int, p *T, lo, hi int64, what string) {
	if !c.at(field) {
		return
	}
	v := c.varint(field, int64(*p))
	if c.dec && c.err == nil && (v < lo || v > hi) {
		c.err = corrupt("%s %d", what, v)
	}
	*p = T(v)
}

// Bool declares a boolean field, a varint of 1 or 0.
func (c *Codec) Bool(field int, p *bool) {
	if c.at(field) {
		var v int64
		if *p {
			v = 1
		}
		*p = c.varint(field, v) != 0
	}
}

// String declares a string field.
func (c *Codec) String(field int, p *string) {
	if c.at(field) {
		c.string(field, p)
	}
}

func (c *Codec) string(field int, p *string) {
	switch {
	case c.dec:
		var err error
		*p, err = c.r.String()
		c.fail(err)
	case *p != "" || field&OmitEmpty == 0:
		c.PutStringField(field&^OmitEmpty, *p)
	}
}

// Strings declares a repeated string field.
func (c *Codec) Strings(field int, p *[]string) {
	if c.at(field) {
		c.strings(field, p)
	}
}

func (c *Codec) strings(field int, p *[]string) {
	if !c.dec {
		for i := range *p {
			c.string(field, &(*p)[i])
		}
		return
	}
	var s string
	c.string(field, &s)
	*p = append(*p, s)
}

// Blob declares a byte-string field; a decoded one is a view into the
// input.
func (c *Codec) Blob(field int, p *[]byte) {
	if c.at(field) {
		c.blob(field, p)
	}
}

func (c *Codec) blob(field int, p *[]byte) {
	switch {
	case c.dec:
		var err error
		*p, err = c.r.Bytes()
		c.fail(err)
	case len(*p) > 0 || field&OmitEmpty == 0:
		c.PutBytesField(field&^OmitEmpty, *p)
	}
}

// Ints declares a packed list of ints.
func (c *Codec) Ints(field int, p *[]int) {
	if c.at(field) {
		c.ints(field, p)
	}
}

func (c *Codec) ints(field int, p *[]int) {
	switch {
	case c.dec:
		var err error
		*p, err = c.r.Ints()
		c.fail(err)
	case len(*p) > 0 || field&OmitEmpty == 0:
		c.PutIntsField(field&^OmitEmpty, *p)
	}
}

// Int64s declares a packed list of int64s.
func (c *Codec) Int64s(field int, p *[]int64) {
	if c.at(field) {
		c.int64s(field, p)
	}
}

func (c *Codec) int64s(field int, p *[]int64) {
	switch {
	case c.dec:
		var err error
		*p, err = c.r.Int64s()
		c.fail(err)
	case len(*p) > 0 || field&OmitEmpty == 0:
		c.PutInt64sField(field&^OmitEmpty, *p)
	}
}

// Column declares a bit-packed column (PutBitPackedField) of the values of
// *p that sel selects. A decoder appends the column to *slab and sets *p
// to those values, capped at their length: a slab that grows later leaves
// *p in its old array, where it stays valid.
func (c *Codec) Column(field int, p *[]int64, sel []uint64, slab *[]int64) {
	if !c.at(field) {
		return
	}
	if !c.dec {
		c.PutBitPackedField(field, *p, sel)
		return
	}
	start := len(*slab)
	var err error
	if *slab, err = c.r.AppendBitPacked(*slab); err != nil {
		c.err = err
		return
	}
	*p = (*slab)[start:len(*slab):len(*slab)]
}

// Columns declares a repeated bit-packed column, as Column does one.
func (c *Codec) Columns(field int, p *[][]int64, sel []uint64, slab *[]int64) {
	if !c.dec {
		for i := range *p {
			c.Column(field, &(*p)[i], sel, slab)
		}
	} else if c.at(field) {
		var col []int64
		c.Column(field, &col, sel, slab)
		*p = append(*p, col)
	}
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
	if c.on(field) {
		msg(c, field, v, decl)
	}
}

func msg[T any](c *Codec, field int, v *T, decl func(*Codec, *T)) {
	if !c.dec {
		c.PutMsgField(field, func(c *Codec) { decl(c, v) })
		return
	}
	if p, err := c.r.Bytes(); err != nil {
		c.err = err
	} else {
		sub(c, p, v, decl)
	}
}

// sub decodes the message p into v on c, and returns c to its place in the
// message it was decoding. It walks decl once per field (its Init lines
// in the first walk, or in a walk of their own for a message without
// fields), then, if decl has Check lines, once more for them.
func sub[T any](c *Codec, p []byte, v *T, decl func(*Codec, *T)) error {
	outer, f, wt, first, checks := c.r, c.f, c.wt, c.first, c.checks
	c.r, c.first, c.checks = Reader{b: p}, true, false
	c.fail(c.r.Fields(func(f, wt int) error {
		c.f, c.wt = f, wt
		decl(c, v)
		c.first = false
		return c.err
	}))
	if c.err == nil && c.first {
		c.f = fieldNone
		decl(c, v)
	}
	if c.err == nil && c.checks {
		c.f = fieldEnd
		decl(c, v)
	}
	c.r, c.f, c.wt, c.first, c.checks = outer, f, wt, first, checks
	return c.err
}

// Ptr declares a nested message field holding **p, absent when *p is nil.
// A decoder decodes each occurrence into a new value.
func Ptr[T any](c *Codec, field int, p **T, decl func(*Codec, *T)) {
	if c.on(field) {
		ptr(c, field, p, decl)
	}
}

func ptr[T any](c *Codec, field int, p **T, decl func(*Codec, *T)) {
	switch {
	case c.dec:
		v := new(T)
		msg(c, field, v, decl)
		*p = v
	case *p != nil:
		msg(c, field, *p, decl)
	}
}

// Msgs declares a repeated nested message field, one message per element
// of *p.
func Msgs[T any](c *Codec, field int, p *[]T, decl func(*Codec, *T)) {
	if c.on(field) {
		msgs(c, field, p, decl)
	}
}

func msgs[T any](c *Codec, field int, p *[]T, decl func(*Codec, *T)) {
	if !c.dec {
		for i := range *p {
			msg(c, field, &(*p)[i], decl)
		}
		return
	}
	var zero T
	*p = append(*p, zero)
	msg(c, field, &(*p)[len(*p)-1], decl)
}

// Tree declares a repeated nested message field of a recursive message:
// each element is one level deeper than the message holding it. A decoder
// fails an element more than maxDepth levels deep with the error deep.
func Tree[T any](c *Codec, field int, p *[]*T, decl func(*Codec, *T), deep string) {
	if c.on(field) {
		tree(c, field, p, decl, deep)
	}
}

func tree[T any](c *Codec, field int, p *[]*T, decl func(*Codec, *T), deep string) {
	if !c.dec {
		for _, v := range *p {
			msg(c, field, v, decl)
		}
		return
	}
	if c.depth >= maxDepth {
		if _, c.err = c.r.Bytes(); c.err == nil {
			c.err = corrupt("%s", deep)
		}
		return
	}
	v := new(T)
	c.depth++
	msg(c, field, v, decl)
	c.depth--
	*p = append(*p, v)
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
	if c.on(field) {
		mapField(c, field, m, decl)
	}
}

func mapField[K cmp.Ordered, V any](c *Codec, field int, m *map[K]V, decl func(*Codec, *K, *V)) {
	fields := func(c *Codec, e *entry[K, V]) { decl(c, &e.k, &e.v) }
	if !c.dec {
		for _, k := range slices.Sorted(maps.Keys(*m)) {
			msg(c, field, &entry[K, V]{k, (*m)[k]}, fields)
		}
		return
	}
	var e entry[K, V]
	msg(c, field, &e, fields)
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[e.k] = e.v
}

// A Conv translates a value to and from the bytes of the nested message
// that holds it. Enc returning nil bytes leaves the field out. Dec is
// given the decoding Codec, to decode the bytes on with sub.
type Conv[V any] struct {
	Enc func(V) ([]byte, error)
	Dec func(*Codec, []byte) (V, error)
}

// Nested declares a nested message field whose bytes conv translates to
// and from *p. A nil interface value is absent.
func Nested[V any](c *Codec, field int, p *V, conv *Conv[V]) {
	if c.on(field) {
		nestedBytes(c, field, p, conv)
	}
}

func nestedBytes[V any](c *Codec, field int, p *V, conv *Conv[V]) {
	var raw []byte
	switch {
	case c.dec:
		raw, err := c.r.Bytes()
		if err == nil {
			*p, err = conv.Dec(c, raw)
		}
		c.fail(err)
	case any(*p) != nil:
		var err error
		if raw, err = conv.Enc(*p); err != nil {
			c.err = cmp.Or(c.err, err)
		} else if raw != nil {
			c.PutBytesField(field, raw)
		}
	}
}

// NestedList declares a repeated field of nested messages whose bytes conv
// translates to and from the elements of *p.
func NestedList[V any](c *Codec, field int, p *[]V, conv *Conv[V]) {
	if !c.dec {
		for i := range *p {
			nestedBytes(c, field, &(*p)[i], conv)
		}
	} else if c.on(field) {
		var v V
		nestedBytes(c, field, &v, conv)
		*p = append(*p, v)
	}
}
