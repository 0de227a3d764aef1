package wire_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
)

// selected gathers the values of vs that sel selects (all for a nil sel).
func selected(vs []int64, sel []uint64) []int64 {
	var out []int64
	for i, v := range vs {
		if sel == nil || sel[i>>6]&(1<<uint(i&63)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// decodeBitPacked decodes p's first field as a bit-packed column appended
// to a copy of prefix.
func decodeBitPacked(p []byte, prefix []int64) ([]int64, error) {
	dst := slices.Clone(prefix)
	err := firstField(p, func(r *wire.Reader) (err error) {
		dst, err = r.AppendBitPacked(dst)
		return err
	})
	return dst, err
}

// checkTwin holds the bit-packed codec to the varint codec on one column
// and selection: the selected column packs to the bytes of the gathered
// one, and both codecs decode to the gathered values.
func checkTwin(t *testing.T, vs []int64, sel []uint64) {
	t.Helper()
	gathered := selected(vs, sel)
	var got, want, varint wire.Buffer
	got.PutBitPackedField(3, vs, sel)
	want.PutBitPackedField(3, gathered, nil)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%d values, %d selected: selected column differs from the gathered one", len(vs), len(gathered))
	}
	varint.PutInt64sField(3, gathered)
	var fromVarint []int64
	if err := firstField(varint.Bytes(), func(r *wire.Reader) (err error) {
		fromVarint, err = r.AppendInt64s(nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	prefix := []int64{-7, 7}
	dec, err := decodeBitPacked(got.Bytes(), prefix)
	if err != nil {
		t.Fatalf("%d values, %d selected: %v", len(vs), len(gathered), err)
	}
	if !slices.Equal(dec[:2], prefix) || !slices.Equal(dec[2:], fromVarint) {
		t.Fatalf("%d values, %d selected: bit-packed decode %v, varint decode %v", len(vs), len(gathered), dec[2:], fromVarint)
	}
}

// twinColumns are columns of every block shape: w = 64 (both extremes in
// one block), w = 0 (one value, all equal), negative, narrow and wide
// runs, at lengths around one block and over several.
func twinColumns(rng *rand.Rand) [][]int64 {
	cols := [][]int64{
		nil,
		{42},
		{math.MinInt64},
		{math.MaxInt64, math.MinInt64},
		{math.MinInt64, 0, math.MaxInt64, -1, 1},
	}
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 700} {
		equal := make([]int64, n)
		negative := make([]int64, n)
		narrow := make([]int64, n)
		wide := make([]int64, n)
		extremes := make([]int64, n)
		for i := range n {
			equal[i] = -3
			negative[i] = -1 - rng.Int63n(1<<20)
			narrow[i] = rng.Int63n(1000)
			wide[i] = int64(rng.Uint64()) >> uint(rng.Intn(64))
			extremes[i] = []int64{math.MinInt64, math.MaxInt64}[i&1]
		}
		cols = append(cols, equal, negative, narrow, wide, extremes)
	}
	return cols
}

// twinSelections are nil, empty, full and random selections over n rows.
func twinSelections(rng *rand.Rand, n int) [][]uint64 {
	words := (n + 63) / 64
	full := make([]uint64, words)
	for i := range n {
		full[i>>6] |= 1 << uint(i&63)
	}
	sels := [][]uint64{nil, make([]uint64, words), full}
	for range 3 {
		sel := make([]uint64, words)
		for i := range sel {
			sel[i] = rng.Uint64() & full[i]
		}
		sels = append(sels, sel)
	}
	return sels
}

// TestBitPackedMatchesVarint holds the bit-packed column codec to the
// varint codec over every twin column and selection, and requires a write
// into a buffer with room and a decode into a slab with room to allocate
// nothing.
func TestBitPackedMatchesVarint(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var b wire.Buffer
	slab := make([]int64, 0, 1024)
	for _, vs := range twinColumns(rng) {
		for _, sel := range twinSelections(rng, len(vs)) {
			checkTwin(t, vs, sel)
			b.Reset()
			b.PutBitPackedField(3, vs, sel)
			if allocs := testing.AllocsPerRun(10, func() {
				b.Reset()
				b.PutBitPackedField(3, vs, sel)
			}); allocs != 0 {
				t.Fatalf("%d values: %v allocs per write", len(vs), allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() {
				r := wire.NewReader(b.Bytes())
				_ = r.Fields(func(int, int) (err error) {
					slab, err = r.AppendBitPacked(slab[:0])
					return err
				})
			}); allocs != 0 {
				t.Fatalf("%d values: %v allocs per decode", len(vs), allocs)
			}
		}
	}
}

// The bit width byte and the block sizes follow the values' range.
func TestBitPackedLayout(t *testing.T) {
	for _, c := range []struct {
		vs   []int64
		want []byte
	}{
		{nil, []byte{0x1a, 0x01, 0x00}},
		{[]int64{5, 5}, []byte{0x1a, 0x03, 0x02, 0x0a, 0x00}},
		{[]int64{-1, 2}, []byte{0x1a, 0x0b, 0x02, 0x01, 0x02, 0x0c, 0, 0, 0, 0, 0, 0, 0}},
	} {
		var b wire.Buffer
		b.PutBitPackedField(3, c.vs, nil)
		if !bytes.Equal(b.Bytes(), c.want) {
			t.Fatalf("%v: % x, want % x", c.vs, b.Bytes(), c.want)
		}
	}
	// 129 values make a block of 128 at width 64 and a block of one at
	// width 0.
	vs := make([]int64, 129)
	vs[0], vs[1] = math.MinInt64, math.MaxInt64
	var b wire.Buffer
	b.PutBitPackedField(1, vs, nil)
	// tag, 2-byte length, 2-byte count, then the two blocks.
	if n := 1 + 2 + 2 + (10 + 1 + 128*8) + (1 + 1); b.Len() != n {
		t.Fatalf("129 values: %d bytes, want %d", b.Len(), n)
	}
}

// corruptColumns are bit-packed column fields the decoder must reject.
func corruptColumns() map[string][]byte {
	field := func(body ...byte) []byte { return append([]byte{0x1a, byte(len(body))}, body...) }
	return map[string][]byte{
		"width 65":              field(0x01, 0x00, 65, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"width 255":             field(0x01, 0x00, 0xff),
		"words short":           field(0x02, 0x00, 0x08, 0x01),
		"words missing":         field(0x01, 0x00, 0x01),
		"bytes after block":     field(0x01, 0x00, 0x00, 0x00),
		"width missing":         field(0x01, 0x80, 0x01),
		"minimum truncated":     field(0x01, 0x80, 0x80),
		"count truncated":       field(0x80),
		"no count":              field(),
		"count over 64 a byte":  field(0x81, 0x01, 0x00, 0x00),
		"count of 2^64-1":       field(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00),
		"second block missing":  field(0x81, 0x01, 0x00, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"length beyond input":   {0x1a, 0x09, 0x01},
		"block words past body": field(0x81, 0x01, 0x00, 0x00, 0x00, 0x01),
	}
}

func TestBitPackedCorrupt(t *testing.T) {
	for name, p := range corruptColumns() {
		dst, err := decodeBitPacked(p, []int64{7, 8})
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: %v, want wire.ErrCorrupt", name, err)
		}
		if !slices.Equal(dst, []int64{7, 8}) {
			t.Errorf("%s: scratch came back as %v, want [7 8]", name, dst)
		}
	}
}

// FuzzBitPacked fuzzes the bit-packed column codec two ways. data read as
// a column body must decode or fail with wire.ErrCorrupt, leaving the
// caller's scratch as it was, and what decodes must re-encode and decode
// to the same values. data read as values — base + int8(data[i])<<shift
// for n values, selected by the bits of selBits (all when it is empty) —
// must pack to the gathered column's bytes and decode, under both the
// bit-packed and the varint codec, to the same values.
func FuzzBitPacked(f *testing.F) {
	for _, p := range corruptColumns() {
		f.Add(p[2:], int64(0), uint8(0), uint16(0), []byte(nil))
	}
	var b wire.Buffer
	b.PutBitPackedField(3, []int64{math.MinInt64, 0, math.MaxInt64}, nil)
	f.Add(b.Bytes()[2:], int64(math.MinInt64), uint8(0), uint16(2), []byte(nil))
	f.Add([]byte{0, 0xff}, int64(math.MinInt64), uint8(0), uint16(128), []byte{0x55})
	f.Add([]byte{1, 2, 3, 200}, int64(1000), uint8(3), uint16(700), []byte(nil))
	f.Add([]byte{0x80}, int64(-1), uint8(63), uint16(129), []byte{0xff, 0x0f})
	f.Add([]byte{7}, int64(5), uint8(0), uint16(127), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, base int64, shift uint8, n uint16, selBits []byte) {
		field := append([]byte{0x1a}, binaryUvarint(uint64(len(data)))...)
		field = append(field, data...)
		dec, err := decodeBitPacked(field, []int64{7, 8})
		switch {
		case err != nil && !errors.Is(err, wire.ErrCorrupt):
			t.Fatalf("decode error %v does not wrap wire.ErrCorrupt", err)
		case err != nil && !slices.Equal(dec, []int64{7, 8}):
			t.Fatalf("scratch came back as %v after %v", dec, err)
		case err == nil:
			var again wire.Buffer
			again.PutBitPackedField(3, dec[2:], nil)
			round, err := decodeBitPacked(again.Bytes(), nil)
			if err != nil || !slices.Equal(round, dec[2:]) {
				t.Fatalf("re-encoded column decodes to %v, %v; want %v", round, err, dec[2:])
			}
		}

		if len(data) == 0 {
			return
		}
		vs := make([]int64, int(n)%1025)
		for i := range vs {
			vs[i] = base + int64(int8(data[i%len(data)]))<<(shift%64)
		}
		var sel []uint64
		if len(selBits) > 0 {
			sel = make([]uint64, (len(vs)+63)/64)
			for i := range vs {
				if selBits[(i>>3)%len(selBits)]&(1<<uint(i&7)) != 0 {
					sel[i>>6] |= 1 << uint(i&63)
				}
			}
		}
		checkTwin(t, vs, sel)
	})
}

// binaryUvarint is the varint encoding of v.
func binaryUvarint(v uint64) []byte {
	var b wire.Buffer
	b.PutUvarint(v)
	return b.Bytes()
}

// BenchmarkBitPacked writes and reads one 128-row W2 column: attributes
// uniform in [0, 1000), so 10 bits each.
func BenchmarkBitPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]int64, 128)
	for i := range vs {
		vs[i] = rng.Int63n(1000)
	}
	var buf wire.Buffer
	slab := make([]int64, 0, len(vs))
	b.Run("put", func(b *testing.B) {
		for range b.N {
			buf.Reset()
			buf.PutBitPackedField(3, vs, nil)
		}
	})
	b.Run("append", func(b *testing.B) {
		for range b.N {
			r := wire.NewReader(buf.Bytes())
			_ = r.Fields(func(int, int) (err error) {
				slab, err = r.AppendBitPacked(slab[:0])
				return err
			})
		}
	})
}
