// Package transport implements the framed byte transport under RUMOR's
// cluster protocol: length-prefixed frames over a net.Conn, each carrying
// one type byte and one opaque payload (an internal/wire message) guarded
// by a CRC32 trailer.
//
// Frame layout on the wire:
//
//	uint32 big-endian length   // covers type + payload + crc
//	byte   type                // protocol frame type, opaque here
//	bytes  payload
//	uint32 big-endian CRC32    // IEEE, over type + payload
//
// The length is checked against a configurable bound before any
// allocation, so a corrupt or hostile peer cannot make a reader
// over-allocate; a CRC mismatch or malformed length surfaces as
// ErrCorruptFrame. Frame types unknown to a receiver are skipped at the
// protocol layer (the payload is self-delimiting), which is what lets the
// protocol grow without breaking old peers.
//
// Every frame is written with a single Write call on the underlying
// connection, so the deterministic fault layer (FaultSet) can address
// individual frames by per-link write index.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Process-global frame telemetry, counted at the Conn layer (WriteFrame /
// ReadFrame) only — DecodeFrame is a pure function used by tests and
// tooling and stays silent. Counting is gated on obs.Enabled so unmetered
// runs pay a single predicted branch per frame; frames are rare relative
// to tuples, so this stays far outside the hot-path budget.
var (
	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	crcErrors  atomic.Int64
)

// Stats is a point-in-time copy of the process-wide transport counters.
type Stats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	CRCErrors              int64
}

// ReadStats snapshots the process-wide transport counters. Counters only
// advance while telemetry is enabled (obs.Enable).
func ReadStats() Stats {
	return Stats{
		FramesSent: framesSent.Load(),
		FramesRecv: framesRecv.Load(),
		BytesSent:  bytesSent.Load(),
		BytesRecv:  bytesRecv.Load(),
		CRCErrors:  crcErrors.Load(),
	}
}

// MetricsInto folds the transport counters into s.
func MetricsInto(s *obs.Snapshot) {
	st := ReadStats()
	s.AddCounter("transport_frames_sent_total", st.FramesSent)
	s.AddCounter("transport_frames_recv_total", st.FramesRecv)
	s.AddCounter("transport_bytes_sent_total", st.BytesSent)
	s.AddCounter("transport_bytes_recv_total", st.BytesRecv)
	s.AddCounter("transport_crc_errors_total", st.CRCErrors)
}

// DefaultMaxFrame bounds a frame (type + payload + crc) unless the caller
// configures otherwise. State-migration payloads dominate frame sizes; 64
// MiB is far above any single exported group side.
const DefaultMaxFrame = 64 << 20

// HeaderLen and TrailerLen are the bytes of a frame before its payload
// (length and type) and after it (CRC).
const (
	HeaderLen  = 5
	TrailerLen = 4
)

// ErrCorruptFrame reports a malformed frame: bad length, short input, or
// CRC mismatch. Framing cannot be resynchronized after it; the connection
// must be dropped.
var ErrCorruptFrame = errors.New("transport: corrupt frame")

// ErrFrameTooBig reports a frame whose declared length exceeds the
// configured bound. Detected before allocation.
var ErrFrameTooBig = errors.New("transport: frame exceeds size bound")

// AppendFrame appends one encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	dst = append(dst, payload...)
	dst = append(dst, make([]byte, TrailerLen)...)
	SealFrame(dst[start:], typ)
	return dst
}

// SealFrame makes frame, a payload written in place between HeaderLen
// bytes of room and TrailerLen bytes of room, a frame of type typ: it
// fills in the length, the type and the CRC. The bytes are those
// AppendFrame gives the same payload.
func SealFrame(frame []byte, typ byte) {
	n := len(frame) - 4
	binary.BigEndian.PutUint32(frame, uint32(n))
	frame[4] = typ
	binary.BigEndian.PutUint32(frame[n:], crc32.ChecksumIEEE(frame[4:n]))
}

// DecodeFrame decodes one frame from the front of buf, returning its type,
// payload (a view into buf), and the remaining bytes. maxFrame <= 0 means
// DefaultMaxFrame. Truncated input, an over-bound length, and a CRC
// mismatch are errors; DecodeFrame never panics and never allocates
// proportionally to a declared (unverified) length.
func DecodeFrame(buf []byte, maxFrame int) (typ byte, payload, rest []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(buf) < 4 {
		return 0, nil, buf, fmt.Errorf("%w: short length prefix (%d bytes)", ErrCorruptFrame, len(buf))
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n < 5 { // type + crc at minimum
		return 0, nil, buf, fmt.Errorf("%w: declared length %d below minimum", ErrCorruptFrame, n)
	}
	if n > maxFrame {
		return 0, nil, buf, fmt.Errorf("%w: declared length %d > bound %d", ErrFrameTooBig, n, maxFrame)
	}
	if len(buf)-4 < n {
		return 0, nil, buf, fmt.Errorf("%w: declared length %d exceeds %d available", ErrCorruptFrame, n, len(buf)-4)
	}
	body := buf[4 : 4+n]
	crc := binary.BigEndian.Uint32(body[n-4:])
	if crc32.ChecksumIEEE(body[:n-4]) != crc {
		return 0, nil, buf, fmt.Errorf("%w: CRC mismatch", ErrCorruptFrame)
	}
	return body[0], body[1 : n-4], buf[4+n:], nil
}

// Conn frames a net.Conn. Reads are buffered; writes go to the underlying
// connection in exactly one Write call per frame. Conn is not safe for
// concurrent use of the same direction; one reader plus one writer is
// fine.
type Conn struct {
	c        net.Conn
	r        *bufio.Reader
	wbuf     []byte
	rbuf     []byte
	maxFrame int
}

// NewConn wraps c. maxFrame <= 0 means DefaultMaxFrame.
func NewConn(c net.Conn, maxFrame int) *Conn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Conn{c: c, r: bufio.NewReaderSize(c, 64<<10), maxFrame: maxFrame}
}

// WriteFrame writes one frame in a single underlying Write.
func (fc *Conn) WriteFrame(typ byte, payload []byte) error {
	if len(payload)+HeaderLen+TrailerLen-4 > fc.maxFrame {
		return fmt.Errorf("%w: payload %d bytes", ErrFrameTooBig, len(payload))
	}
	fc.wbuf = AppendFrame(fc.wbuf[:0], typ, payload)
	return fc.WriteSealed(fc.wbuf)
}

// WriteSealed writes a frame SealFrame completed, in a single underlying
// Write and without copying it.
func (fc *Conn) WriteSealed(frame []byte) error {
	if len(frame)-4 > fc.maxFrame {
		return fmt.Errorf("%w: payload %d bytes", ErrFrameTooBig, len(frame)-HeaderLen-TrailerLen)
	}
	_, err := fc.c.Write(frame)
	if err == nil && obs.Enabled() {
		framesSent.Add(1)
		bytesSent.Add(int64(len(frame)))
	}
	return err
}

// ReadFrame reads the next frame. The returned payload is valid until the
// next ReadFrame call. Any error — including a read deadline expiring mid
// frame — leaves the stream position undefined; the connection must be
// dropped.
func (fc *Conn) ReadFrame() (byte, []byte, error) {
	var hdr [4]byte
	if _, err := readFull(fc.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 5 {
		return 0, nil, fmt.Errorf("%w: declared length %d below minimum", ErrCorruptFrame, n)
	}
	if n > fc.maxFrame {
		return 0, nil, fmt.Errorf("%w: declared length %d > bound %d", ErrFrameTooBig, n, fc.maxFrame)
	}
	if cap(fc.rbuf) < n {
		fc.rbuf = make([]byte, n)
	}
	body := fc.rbuf[:n]
	if _, err := readFull(fc.r, body); err != nil {
		return 0, nil, err
	}
	crc := binary.BigEndian.Uint32(body[n-4:])
	if crc32.ChecksumIEEE(body[:n-4]) != crc {
		if obs.Enabled() {
			crcErrors.Add(1)
		}
		return 0, nil, fmt.Errorf("%w: CRC mismatch", ErrCorruptFrame)
	}
	if obs.Enabled() {
		framesRecv.Add(1)
		bytesRecv.Add(int64(4 + n))
	}
	return body[0], body[1 : n-4], nil
}

// readFull is io.ReadFull without the io import dance on error wrapping:
// a short read reports how much arrived.
func readFull(r *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// SetDeadline bounds both directions of the next operations; the zero
// time clears it.
func (fc *Conn) SetDeadline(t time.Time) error { return fc.c.SetDeadline(t) }

// Close closes the underlying connection.
func (fc *Conn) Close() error { return fc.c.Close() }

// RemoteAddr reports the peer address of the underlying connection.
func (fc *Conn) RemoteAddr() net.Addr { return fc.c.RemoteAddr() }
