package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 100000)}
	var buf []byte
	for i, p := range payloads {
		buf = AppendFrame(buf, byte(i+1), p)
	}
	rest := buf
	for i, p := range payloads {
		typ, payload, r, err := DecodeFrame(rest, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %d", i, typ)
		}
		if !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(payload), len(p))
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, 7, []byte("payload"))
	for n := 0; n < len(full); n++ {
		if _, _, _, err := DecodeFrame(full[:n], 0); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
}

func TestFrameCorrupt(t *testing.T) {
	full := AppendFrame(nil, 7, []byte("payload"))
	for i := 4; i < len(full); i++ { // flipping length bytes hits the length checks instead
		bad := append([]byte(nil), full...)
		bad[i] ^= 0x40
		if _, _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at %d: got %v", i, err)
		}
	}
}

func TestFrameOversized(t *testing.T) {
	full := AppendFrame(nil, 1, bytes.Repeat([]byte{1}, 1000))
	if _, _, _, err := DecodeFrame(full, 100); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("got %v", err)
	}
	// A huge declared length with no bytes behind it must not allocate.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, _, err := DecodeFrame(hdr, 0); err == nil {
		t.Fatal("declared 4 GiB frame decoded")
	}
}

// A frame is its length (type + payload + CRC), its type, its payload and
// the IEEE CRC of type and payload; SealFrame fills the same bytes into a
// payload written in place.
func TestFrameLayout(t *testing.T) {
	want := []byte{0, 0, 0, 7, 9, 'a', 'b'}
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE([]byte{9, 'a', 'b'}))
	if got := AppendFrame([]byte{1, 2}, 9, []byte("ab")); !bytes.Equal(got[2:], want) || got[0] != 1 {
		t.Fatalf("AppendFrame: % x, want 01 02 % x", got, want)
	}
	inPlace := make([]byte, HeaderLen, 64)
	inPlace = append(inPlace, "ab"...)
	inPlace = append(inPlace, make([]byte, TrailerLen)...)
	SealFrame(inPlace, 9)
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("SealFrame: % x, want % x", inPlace, want)
	}
}

func TestConnFrames(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a, 0), NewConn(b, 0)
	done := make(chan error, 1)
	go func() {
		if err := ca.WriteFrame(3, []byte("abc")); err != nil {
			done <- err
			return
		}
		frame := make([]byte, HeaderLen+TrailerLen)
		SealFrame(frame, 4)
		done <- ca.WriteSealed(frame)
	}()
	typ, p, err := cb.ReadFrame()
	if err != nil || typ != 3 || string(p) != "abc" {
		t.Fatalf("frame 1: typ=%d p=%q err=%v", typ, p, err)
	}
	typ, p, err = cb.ReadFrame()
	if err != nil || typ != 4 || len(p) != 0 {
		t.Fatalf("frame 2: typ=%d p=%q err=%v", typ, p, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnReadDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	cb := NewConn(b, 0)
	cb.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := cb.ReadFrame(); err == nil {
		t.Fatal("read past deadline succeeded")
	}
}

func TestFaultSet(t *testing.T) {
	fs := NewFaultSet()
	fs.Add(FaultRule{Link: "l", Write: 1, Action: FaultDrop})
	fs.Add(FaultRule{Link: "l", Write: 3, Action: FaultDup})
	lis := NewPipeListener()
	defer lis.Close()
	var got [][]byte
	read := make(chan struct{})
	go func() {
		defer close(read)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		fc := NewConn(c, 0)
		for i := 0; i < 4; i++ {
			_, p, err := fc.ReadFrame()
			if err != nil {
				return
			}
			got = append(got, append([]byte(nil), p...))
		}
	}()
	raw, err := lis.Dial()
	if err != nil {
		t.Fatal(err)
	}
	// net.Pipe writes are synchronous, so the writer sends exactly as many
	// frames as the reader will consume: writes 0..3 become 4 delivered
	// frames (one dropped, one duplicated).
	fc := NewConn(fs.Wrap("l", raw), 0)
	for i := 0; i < 4; i++ {
		if err := fc.WriteFrame(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	<-read
	// Writes 0,2,4 pass, 1 dropped, 3 duplicated: receiver sees 0,2,3,3.
	want := []byte{0, 2, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i, p := range got {
		if len(p) != 1 || p[0] != want[i] {
			t.Fatalf("frame %d: %v, want [%d]", i, p, want[i])
		}
	}
	if fs.Hits("l") != 2 {
		t.Fatalf("hits=%d", fs.Hits("l"))
	}
}

func TestFaultSever(t *testing.T) {
	fs := NewFaultSet()
	fs.Add(FaultRule{Link: "x", Write: 0, Action: FaultSever})
	a, b := net.Pipe()
	defer b.Close()
	fc := NewConn(fs.Wrap("x", a), 0)
	if err := fc.WriteFrame(1, []byte("boom")); err == nil {
		t.Fatal("severed write succeeded")
	}
	// Counter persists across a "reconnect" on the same link.
	a2, b2 := net.Pipe()
	defer b2.Close()
	fc2 := NewConn(fs.Wrap("x", a2), 0)
	go func() {
		c := NewConn(b2, 0)
		c.ReadFrame()
	}()
	if err := fc2.WriteFrame(1, []byte("ok")); err != nil {
		t.Fatalf("post-sever write on fresh conn: %v", err)
	}
	if fs.Writes("x") != 2 {
		t.Fatalf("writes=%d, want 2 (counter shared across conns)", fs.Writes("x"))
	}
}

func TestPipeListenerClose(t *testing.T) {
	lis := NewPipeListener()
	lis.Close()
	if _, err := lis.Dial(); err == nil {
		t.Fatal("dial on closed listener succeeded")
	}
	if _, err := lis.Accept(); err == nil {
		t.Fatal("accept on closed listener succeeded")
	}
}
