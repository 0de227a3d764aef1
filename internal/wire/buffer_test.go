package wire_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/wire"
)

// twoBuffer is the reference encoding of a nested message: the body in a
// buffer of its own, appended as a length-delimited field.
func twoBuffer(b *wire.Buffer, field int, fn func(*wire.Buffer)) {
	var sub wire.Buffer
	fn(&sub)
	b.PutBytesField(field, sub.Bytes())
}

// bodyOf writes n one-byte varints, so the body is exactly n bytes.
func bodyOf(n int) func(*wire.Buffer) {
	return func(b *wire.Buffer) {
		for i := 0; i < n; i++ {
			b.PutUvarint(uint64(i % 128))
		}
	}
}

// firstField reads the value of p's first field with read.
func firstField(p []byte, read func(*wire.Reader) error) error {
	r := wire.NewReader(p)
	done := false
	return r.Fields(func(int, int) error {
		if done {
			return nil
		}
		done = true
		return read(r)
	})
}

// PutMsgField back-patches its length in place; the bytes must equal the
// two-buffer encoding across length varints of 1, 2, 3 and 4 bytes, at an
// offset and nested inside another in-place message.
func TestPutMsgFieldMatchesTwoBuffer(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 21} {
		var got, want wire.Buffer
		got.PutVarintField(1, -5)
		want.PutVarintField(1, -5)
		got.PutMsgField(2, bodyOf(n))
		twoBuffer(&want, 2, bodyOf(n))
		got.PutMsgField(3, func(b *wire.Buffer) {
			b.PutVarintField(1, 9)
			b.PutMsgField(2, bodyOf(n))
		})
		twoBuffer(&want, 3, func(b *wire.Buffer) {
			b.PutVarintField(1, 9)
			twoBuffer(b, 2, bodyOf(n))
		})
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("body %d bytes: in-place encoding differs from the two-buffer encoding", n)
		}
		r := wire.NewReader(got.Bytes())
		var fields []int
		var body []byte
		err := r.Fields(func(f, _ int) (err error) {
			fields = append(fields, f)
			if f == 2 {
				body, err = r.Bytes()
			}
			return err
		})
		if err != nil || !slices.Equal(fields, []int{1, 2, 3}) {
			t.Fatalf("fields %v, %v; want [1 2 3]", fields, err)
		}
		if len(body) != n {
			t.Fatalf("body %d bytes; want %d", len(body), n)
		}
	}
}

// The packed-list encoders size the body up front; their bytes must equal
// the nested-message encoding, and every decoder must read them back.
func TestPackedListsRoundTrip(t *testing.T) {
	lists := [][]int64{
		nil,
		{0},
		{math.MinInt64, math.MaxInt64, -1, 1, 63, -64, 64, 1 << 40},
		make([]int64, 300),
	}
	for i := range lists[3] {
		lists[3][i] = int64(i*i) - 40000
	}
	for _, vs := range lists {
		var got, want wire.Buffer
		got.PutInt64sField(4, vs)
		twoBuffer(&want, 4, func(b *wire.Buffer) {
			for _, v := range vs {
				b.PutVarint(v)
			}
		})
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("PutInt64sField(%d values) differs from the nested-message encoding", len(vs))
		}
		ints := make([]int, len(vs))
		for i, v := range vs {
			ints[i] = int(v)
		}
		got.PutIntsField(5, ints)

		r := wire.NewReader(got.Bytes())
		var dec []int64
		var decInts []int
		if err := r.Fields(func(f, _ int) (err error) {
			switch f {
			case 4:
				dec, err = r.Int64s()
			case 5:
				decInts, err = r.Ints()
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dec, vs) || (len(vs) == 0) != (dec == nil) {
			t.Fatalf("Int64s: %v; want %v", dec, vs)
		}
		if !slices.Equal(decInts, ints) || (len(ints) == 0) != (decInts == nil) {
			t.Fatalf("Ints: %v; want %v", decInts, ints)
		}

		dst := []int64{7, 8}
		err := firstField(got.Bytes(), func(r *wire.Reader) (err error) {
			dst, err = r.AppendInt64s(dst)
			return err
		})
		if err != nil || !slices.Equal(dst, append([]int64{7, 8}, vs...)) {
			t.Fatalf("AppendInt64s: %v, %v", dst, err)
		}
	}
}

// A truncated or overlong packed list is an error, never a panic.
func TestPackedListCorrupt(t *testing.T) {
	for _, p := range [][]byte{
		{0x22, 0x02, 0x80, 0x80}, // length 2, varint never terminates
		{0x22, 0x05, 0x01},       // length beyond the input
		{0x22, 0x01, 0xff},       // truncated varint
		{0x22, 0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // overflow
	} {
		if err := firstField(p, func(r *wire.Reader) error { _, err := r.Int64s(); return err }); err == nil {
			t.Fatalf("Int64s(% x): no error", p)
		}
		if err := firstField(p, func(r *wire.Reader) error { _, err := r.Ints(); return err }); err == nil {
			t.Fatalf("Ints(% x): no error", p)
		}
		// The caller's scratch comes back at its own length.
		dst := []int64{7, 8}
		err := firstField(p, func(r *wire.Reader) (err error) {
			dst, err = r.AppendInt64s(dst)
			return err
		})
		if err == nil || !slices.Equal(dst, []int64{7, 8}) {
			t.Fatalf("AppendInt64s(% x): %v, %v; want [7 8] and an error", p, dst, err)
		}
	}
}
