// Package wire implements the versioned, self-describing binary codec
// behind RUMOR's checkpoint/restore and state-transport paths: operator
// state payloads (mop.StatePayload), plan snapshots and their
// fingerprints, partition plans, churn records, and the checkpoint
// envelope tying them together.
//
// The format is protobuf-shaped without the dependency: a message is a
// sequence of tagged fields, tag = fieldNum<<3 | wiretype, with two wire
// types — 0 (zigzag varint) and 2 (length-delimited: strings, nested
// messages, packed integer lists, bit-packed columns). Each message is
// declared once, as a function over a *Codec that names each field's
// number, type and place in the message's value (codec.go); encoding and
// decoding both walk that declaration, here and for the RPC messages of
// package cluster. Decoding walks a message through Reader.Fields, which
// skips the value of any field the declaration does not read: that one
// loop is where unknown tags are skipped, so fields can be added without
// breaking old readers (forward compatibility); a leading magic + format
// version guards against incompatible changes.
//
// Decoding never panics on corrupt input: every primitive checks bounds
// and returns ErrCorrupt, recursive structures carry a depth limit, and
// every allocation is bounded by the length of the input itself (a packed
// list is sized by counting its encoded values; a bit-packed column's
// declared count is checked against what its length can hold).
package wire

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// ErrCorrupt reports malformed input. All decode errors wrap it.
var ErrCorrupt = errors.New("wire: corrupt input")

// maxDepth bounds recursion while decoding nested structures (predicate
// trees, logical query trees) so hostile input cannot overflow the stack.
const maxDepth = 512

// Wire types.
//
//rumor:wiretags
const (
	wtVarint = 0
	wtBytes  = 2
)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// zigzag encoding folds signed ints into unsigned varints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ---------------------------------------------------------------------------
// Buffer: the encoder's primitives
// ---------------------------------------------------------------------------

// Bytes returns the encoded contents.
func (b *Buffer) Bytes() []byte { return b.b }

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.b) }

// Reset empties b, keeping its capacity for the next encoding.
func (b *Buffer) Reset() { b.b = b.b[:0] }

// Truncate drops every byte after the first n.
func (b *Buffer) Truncate(n int) { b.b = b.b[:n] }

// Append appends p as it is, with no tag or length.
func (b *Buffer) Append(p []byte) { b.b = append(b.b, p...) }

// uvarintLen is the encoded width of v in bytes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// PutUvarint appends an unsigned varint.
func (b *Buffer) PutUvarint(v uint64) {
	for v >= 0x80 {
		b.b = append(b.b, byte(v)|0x80)
		v >>= 7
	}
	b.b = append(b.b, byte(v))
}

// PutVarint appends a zigzag-encoded signed varint.
func (b *Buffer) PutVarint(v int64) { b.PutUvarint(zigzag(v)) }

func (b *Buffer) putTag(field, wt int) { b.PutUvarint(uint64(field)<<3 | uint64(wt)) }

// PutVarintField appends a tagged signed integer field.
func (b *Buffer) PutVarintField(field int, v int64) {
	b.putTag(field, wtVarint)
	b.PutVarint(v)
}

// PutBytesField appends a tagged length-delimited field.
func (b *Buffer) PutBytesField(field int, p []byte) {
	b.putTag(field, wtBytes)
	b.PutUvarint(uint64(len(p)))
	b.b = append(b.b, p...)
}

// PutStringField appends a tagged string field.
func (b *Buffer) PutStringField(field int, s string) {
	b.putTag(field, wtBytes)
	b.PutUvarint(uint64(len(s)))
	b.b = append(b.b, s...)
}

// PutMsgField appends a tagged nested message encoded by fn. fn writes
// straight into b after a one-byte length slot, which is back-patched
// once the body's size is known; a body of 128 bytes or more shifts right
// to make room for its wider length varint. The bytes are the same as
// encoding the body separately and appending it with PutBytesField.
func (b *Buffer) PutMsgField(field int, fn func(*Buffer)) {
	b.putTag(field, wtBytes)
	at := len(b.b)
	b.b = append(b.b, 0)
	fn(b)
	n := uint64(len(b.b) - at - 1)
	w := uvarintLen(n)
	if w > 1 {
		// Grown in place rather than by appending a make, which the race
		// detector's build allocates.
		b.b = slices.Grow(b.b, w-1)
		b.b = b.b[:len(b.b)+w-1]
		copy(b.b[at+w:], b.b[at+1:len(b.b)-w+1])
	}
	for i := at; n >= 0x80; i++ {
		b.b[i] = byte(n) | 0x80
		n >>= 7
	}
	b.b[at+w-1] = byte(n)
}

// PutIntsField appends a tagged packed list of signed integers.
func (b *Buffer) PutIntsField(field int, vs []int) {
	n := 0
	for _, v := range vs {
		n += uvarintLen(zigzag(int64(v)))
	}
	b.putTag(field, wtBytes)
	b.PutUvarint(uint64(n))
	for _, v := range vs {
		b.PutVarint(int64(v))
	}
}

// PutInt64sField appends a tagged packed list of int64s. The body's
// length is the sum of its values' varint widths, known before the first
// value, so the list is written straight into b.
func (b *Buffer) PutInt64sField(field int, vs []int64) {
	n := 0
	for _, v := range vs {
		n += uvarintLen(zigzag(v))
	}
	b.putTag(field, wtBytes)
	b.PutUvarint(uint64(n))
	for _, v := range vs {
		b.PutVarint(v)
	}
}

// ---------------------------------------------------------------------------
// Reader: the decoder
// ---------------------------------------------------------------------------

// Reader decodes a byte slice in place (sub-messages are views, not
// copies).
type Reader struct {
	b   []byte
	pos int
}

// NewReader returns a reader over p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Done reports whether the reader is exhausted.
func (r *Reader) Done() bool { return r.pos >= len(r.b) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.b) {
			return 0, corrupt("truncated varint")
		}
		c := r.b[r.pos]
		r.pos++
		if shift == 63 && c > 1 {
			return 0, corrupt("varint overflow")
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, corrupt("varint too long")
		}
	}
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() (int64, error) {
	u, err := r.Uvarint()
	return unzigzag(u), err
}

// Bytes reads a length-delimited field as a view into the input.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, corrupt("length %d exceeds remaining %d", n, len(r.b)-r.pos)
	}
	p := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return p, nil
}

// String reads a length-delimited string.
func (r *Reader) String() (string, error) {
	p, err := r.Bytes()
	return string(p), err
}

// Fields reads the message's fields to its end, calling fn with each
// field's number and wire type. fn reads the value with the Reader's
// primitives; a value fn leaves unread is skipped. This loop is the one
// place the unknown-field rule lives: no decoder lists the fields it
// ignores. Fields returns the first error of a tag, of fn or of a skip.
func (r *Reader) Fields(fn func(field, wt int) error) error {
	for !r.Done() {
		tag := uint64(r.b[r.pos])
		if tag < 0x80 { // a one-byte tag, the common case
			r.pos++
		} else {
			var err error
			if tag, err = r.Uvarint(); err != nil {
				return err
			}
			if tag>>3 > 1<<31 {
				return corrupt("field number overflow")
			}
		}
		at := r.pos
		if err := fn(int(tag>>3), int(tag&7)); err != nil {
			return err
		}
		if r.pos == at {
			if err := r.skip(int(tag & 7)); err != nil {
				return err
			}
		}
	}
	return nil
}

// skip consumes the value of an unknown field.
func (r *Reader) skip(wt int) error {
	switch wt {
	case wtVarint:
		_, err := r.Uvarint()
		return err
	case wtBytes:
		_, err := r.Bytes()
		return err
	}
	return corrupt("unknown wire type %d", wt)
}

// packedLen counts the values of a packed varint list: one per byte
// with the continuation bit clear. A truncated trailing varint is not
// counted; decoding it reports the corruption.
func packedLen(p []byte) int {
	n := 0
	for _, c := range p {
		if c < 0x80 {
			n++
		}
	}
	return n
}

// Ints reads a packed list of signed integers into a slice of exactly
// its length (nil when the list is empty).
func (r *Reader) Ints() ([]int, error) {
	p, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	var out []int
	if n := packedLen(p); n > 0 {
		out = make([]int, 0, n)
	}
	sub := Reader{b: p}
	for !sub.Done() {
		v, err := sub.Varint()
		if err != nil {
			return nil, err
		}
		out = append(out, int(v))
	}
	return out, nil
}

// Int64s reads a packed list of int64s into a slice of exactly its
// length (nil when the list is empty).
func (r *Reader) Int64s() ([]int64, error) { return r.AppendInt64s(nil) }

// AppendInt64s reads a packed list of int64s and appends its values to
// dst, growing dst at most once. On error it returns dst at its original
// length, so a caller's scratch survives a corrupt input.
func (r *Reader) AppendInt64s(dst []int64) ([]int64, error) {
	p, err := r.Bytes()
	if err != nil {
		return dst, err
	}
	n := len(dst)
	dst = slices.Grow(dst, packedLen(p))
	sub := Reader{b: p}
	for !sub.Done() {
		v, err := sub.Varint()
		if err != nil {
			return dst[:n], err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
