package wire

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Bit-packed columns: frame-of-reference coding for integer columns whose
// values span a narrow range (Lemire and Boytsov, "Decoding billions of
// integers per second through vectorization", SPE 2015).
//
// A bit-packed column is one length-delimited field: the value count (an
// unsigned varint), then the values in blocks of up to packBlock, the
// last block holding the remainder. A block of n values is its minimum
// (a zigzag varint), its bit width w (one byte, 0 to 64) and ceil(n·w/64)
// little-endian 64-bit words; value i of the block is stored as
// value−minimum in bits [i·w, i·w+w) of the words. An all-equal block has
// w = 0 and no words.
//
// A block takes at least two bytes, so a column of c bytes holds at most
// 64·c values: the decoder rejects a count above that before growing its
// output.

// packBlock is the number of values in every block of a bit-packed column
// but its last.
const packBlock = 128

// PutBitPackedField appends the values of vs that sel selects as a tagged
// bit-packed column: vs[i] is selected iff sel[i>>6] has bit i&63, and a
// nil sel selects every value. The selected values are packed without
// being gathered, in the bytes the column of those values alone gets.
func (b *Buffer) PutBitPackedField(field int, vs []int64, sel []uint64) {
	b.PutMsgField(field, func(b *Buffer) {
		if sel == nil {
			b.PutUvarint(uint64(len(vs)))
			for i := 0; i < len(vs); i += packBlock {
				b.b = appendBlock(b.b, vs[i:min(i+packBlock, len(vs))])
			}
			return
		}
		n := 0
		for _, w := range sel {
			n += bits.OnesCount64(w)
		}
		b.PutUvarint(uint64(n))
		var blk [packBlock]int64
		k := 0
		for wi, w := range sel {
			for ; w != 0; w &= w - 1 {
				blk[k] = vs[wi<<6|bits.TrailingZeros64(w)]
				if k++; k == packBlock {
					b.b = appendBlock(b.b, blk[:])
					k = 0
				}
			}
		}
		if k > 0 {
			b.b = appendBlock(b.b, blk[:k])
		}
	})
}

// appendBlock appends one block of 1 to packBlock values to dst.
//
//rumor:noalloc
func appendBlock(dst []byte, vs []int64) []byte {
	// Two pairs of bounds, over even and odd positions, halve the
	// dependency chains.
	lo, hi, lo1, hi1 := vs[0], vs[0], vs[0], vs[0]
	for i := 1; i+1 < len(vs); i += 2 {
		lo, hi = min(lo, vs[i]), max(hi, vs[i])
		lo1, hi1 = min(lo1, vs[i+1]), max(hi1, vs[i+1])
	}
	lo, hi = min(lo, lo1, vs[len(vs)-1]), max(hi, hi1, vs[len(vs)-1])
	w := bits.Len64(uint64(hi) - uint64(lo))
	words := (len(vs)*w + 63) >> 6
	at := len(dst)
	need := binary.MaxVarintLen64 + 1 + words*8
	if cap(dst)-at < need {
		dst = slices.Grow(dst, need)
	}
	dst = dst[:at+need]
	at += binary.PutUvarint(dst[at:], zigzag(lo))
	dst[at] = byte(w)
	at++
	packWords(dst[at:at+words*8], vs, lo, w)
	return dst[:at+words*8]
}

// packWords stores v−lo of each value of vs in w bits of out, value i at
// bit i·w, as 64-bit little-endian words. out holds exactly
// ceil(len(vs)·w/64) words. The loop is unrolled by four: each copy of
// packStep's branch sees a shorter, more predictable pattern of full
// words.
//
//rumor:noalloc
func packWords(out []byte, vs []int64, lo int64, w int) {
	if w == 0 {
		return
	}
	uw, ulo := uint(w), uint64(lo)
	var acc uint64
	nb := uint(0) // bits of acc in use, below 64
	for ; len(vs) >= 4; vs = vs[4:] {
		out, acc, nb = packStep(out, acc, nb, uint64(vs[0])-ulo, uw)
		out, acc, nb = packStep(out, acc, nb, uint64(vs[1])-ulo, uw)
		out, acc, nb = packStep(out, acc, nb, uint64(vs[2])-ulo, uw)
		out, acc, nb = packStep(out, acc, nb, uint64(vs[3])-ulo, uw)
	}
	for _, v := range vs {
		out, acc, nb = packStep(out, acc, nb, uint64(v)-ulo, uw)
	}
	if nb > 0 {
		binary.LittleEndian.PutUint64(out, acc)
	}
}

// packStep adds the w-bit field d to acc, which holds nb bits, and writes
// acc to out once it fills up. Every shift count is masked to 0–63, which
// spares the compiler's guard for counts of 64 and more; the overflow is
// shifted right by w−nb ≥ 1 in two steps.
//
//rumor:noalloc
func packStep(out []byte, acc uint64, nb uint, d uint64, uw uint) ([]byte, uint64, uint) {
	acc |= d << (nb & 63)
	if nb += uw; nb >= 64 {
		binary.LittleEndian.PutUint64(out, acc)
		out = out[8:]
		nb -= 64
		acc = d >> 1 >> ((uw - nb - 1) & 63) // the nb bits that did not fit
	}
	return out, acc, nb
}

// AppendBitPacked reads a bit-packed column and appends its values to
// dst, growing dst at most once. A bit width above 64, a block whose
// words run past the column, bytes after the last block, and a count the
// column's length cannot hold are corrupt. On error it returns dst at its
// original length, so a caller's scratch survives a corrupt input.
func (r *Reader) AppendBitPacked(dst []int64) ([]int64, error) {
	p, err := r.Bytes()
	if err != nil {
		return dst, err
	}
	sub := Reader{b: p}
	count, err := sub.Uvarint()
	if err != nil {
		return dst, err
	}
	if count > uint64(len(p)-sub.pos)/2*packBlock {
		return dst, corrupt("bit-packed column of %d bytes cannot hold %d values", len(p), count)
	}
	n0 := len(dst)
	dst = slices.Grow(dst, int(count))
	for left := int(count); left > 0; {
		n := min(left, packBlock)
		lo, err := sub.Varint()
		if err != nil {
			return dst[:n0], err
		}
		if sub.Done() {
			return dst[:n0], corrupt("bit-packed block without a width")
		}
		w := int(sub.b[sub.pos])
		sub.pos++
		if w > 64 {
			return dst[:n0], corrupt("bit width %d", w)
		}
		size := (n*w + 63) >> 6 << 3
		if size > len(sub.b)-sub.pos {
			return dst[:n0], corrupt("block of %d values at width %d needs %d bytes, %d left", n, w, size, len(sub.b)-sub.pos)
		}
		at := len(dst)
		dst = dst[:at+n]
		unpackWords(dst[at:], sub.b[sub.pos:sub.pos+size], lo, w)
		sub.pos += size
		left -= n
	}
	if !sub.Done() {
		return dst[:n0], corrupt("%d bytes after the last bit-packed block", len(sub.b)-sub.pos)
	}
	return dst, nil
}

// unpackWords is packWords' inverse: it fills dst with lo plus each w-bit
// field of in, reading one 64-bit word at a time.
//
//rumor:noalloc
func unpackWords(dst []int64, in []byte, lo int64, w int) {
	if w == 0 {
		for i := range dst {
			dst[i] = lo
		}
		return
	}
	uw, ulo := uint(w), uint64(lo)
	mask := uint64(1)<<uw - 1 // all ones at w = 64
	var acc uint64
	nb := uint(0) // unread bits of acc, below 64
	for i := range dst {
		var d uint64
		if nb >= uw {
			d = acc & mask
			acc >>= uw & 63
			nb -= uw
		} else {
			next := binary.LittleEndian.Uint64(in)
			in = in[8:]
			d = (acc | next<<(nb&63)) & mask
			acc = next >> 1 >> ((uw - nb - 1) & 63) // the bits not yet read
			nb += 64 - uw
		}
		dst[i] = int64(ulo + d)
	}
}
