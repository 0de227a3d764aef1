package cluster

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mop"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/wire"
)

// The decode golden pins what every protocol decoder makes of a corpus
// built from valid encodings: the valid input, every truncation of it, and
// every single-byte flip of its first 64 bytes to 0x00, 0xff and b^0x80.
// Each outcome is the error text and whether it wraps wire.ErrCorrupt, or
// the SHA-256 of the decoded value re-encoded. A rewrite of a decoder must
// reproduce testdata/decode.golden byte for byte; regenerate it only for
// an intended change of decode outcomes:
//
//	go test ./internal/cluster -run DecodeGolden -update
var updateGolden = flag.Bool("update", false, "rewrite internal/cluster/testdata/decode.golden")

// codec is one protocol decoder with its encoder: seeds are valid
// encodings, and roundTrip decodes p into a value and re-encodes it.
type codec struct {
	name      string
	seeds     [][]byte
	roundTrip func(p []byte) (v any, enc []byte, err error)
}

// encodeReply encodes a reply message whose body is already encoded.
func encodeReply(callID int64, callErr error, body []byte) []byte {
	var b wire.Buffer
	putReply(&b, callID, func(out *wire.Buffer) error {
		out.Append(body)
		return callErr
	})
	return b.Bytes()
}

// replyError re-creates a decoded reply's error for encodeReply: its text,
// and whether it marked the input corrupt.
type replyError struct {
	msg     string
	corrupt bool
}

func (e replyError) Error() string        { return e.msg }
func (e replyError) Is(target error) bool { return e.corrupt && target == wire.ErrCorrupt }

func goldenGroups() []mop.GroupRef {
	return []mop.GroupRef{
		{OpID: 3, OpIDs: []int{3, 4}, Sides: []int{0, 1}},
		{OpID: 9, OpIDs: []int{9}, Sides: []int{1}},
	}
}

func goldenStats() *obs.Snapshot {
	s := obs.NewSnapshot()
	s.AddCounter("engine.events", 1200)
	s.AddCounter("wire.bytes", 99)
	s.SetGauge("queue.depth", -3)
	var d obs.HistData
	d.Count, d.Sum = 4, 410
	d.Buckets[0], d.Buckets[3], d.Buckets[obs.NumBuckets-1] = 1, 2, 1
	s.AddHist("drain.us", d)
	return s
}

// goldenChurnCall encodes a churn call that sets every field.
func goldenChurnCall() []byte {
	schema := func(name string) core.SchemaSnap { return core.SchemaSnap{Name: name, Attrs: []string{"a", "b"}} }
	p, err := wire.Marshal(&ChurnCall{
		Rec:     &wire.ChurnRecord{Op: wire.ChurnAdd, Name: "q", Root: core.Scan("S"), Fingerprint: 0xfedc_ba98_7654_3210},
		Options: rules.Options{Channels: true},
		Sources: []core.SourceSnap{{Name: "S", Label: "grp", Schema: schema("S")}, {Name: "T", Schema: schema("T")}},
	}, churnCallFields)
	if err != nil {
		panic(err)
	}
	return p
}

// marshal encodes v as decl declares it.
func marshal[T any](v *T, decl func(*wire.Codec, *T)) []byte {
	p, err := wire.Marshal(v, decl)
	if err != nil {
		panic(err)
	}
	return p
}

// roundTripOf decodes p into a new T as decl declares it, and re-encodes
// the T.
func roundTripOf[T any](decl func(*wire.Codec, *T)) func(p []byte) (any, []byte, error) {
	return func(p []byte) (any, []byte, error) {
		v := new(T)
		if err := wire.Unmarshal(p, v, decl); err != nil {
			return nil, nil, err
		}
		enc, err := wire.Marshal(v, decl)
		return v, enc, err
	}
}

// controlCodecs lists every control-message decoder: all but the batch
// decoder, which FuzzDecodeBatch covers.
func controlCodecs() []codec {
	// The call codec carries its body as opaque bytes. The seed's body is
	// a batch in the row form protocol version 3 wrote, kept byte for byte
	// so the call seed stays what it was.
	var batch wire.Buffer
	batch.PutVarintField(1, 4)
	batch.PutMsgField(2, func(b *wire.Buffer) {
		b.PutVarintField(1, 1)
		b.PutVarintField(2, 5)
		b.PutInt64sField(3, []int64{-1, 2})
	})
	payload := []byte{0x08, 0x02, 0x10, 0x01}
	groups := goldenGroups()
	return []codec{
		{"hello", [][]byte{marshal(&hello{
			Proto: ProtoVersion, ShardIdx: 1, ShardCount: 4, Epoch: 9, Resume: true,
			SrcNames: []string{"S", "T"}, PlanBytes: []byte("plan snapshot"),
		}, helloFields)}, roundTripOf(helloFields)},
		{"helloAck", [][]byte{marshal(&helloAck{
			Proto: ProtoVersion, BootID: 77, LastApplied: 12, Err: "refused", Groups: goldenGroups(),
		}, helloAckFields)}, roundTripOf(helloAckFields)},
		{"call", [][]byte{encodeCall(7, opBatch, batch.Bytes())}, func(p []byte) (any, []byte, error) {
			var m call
			if err := wire.Unmarshal(p, &m, callFields); err != nil {
				return nil, nil, err
			}
			return struct {
				CallID int64
				Op     byte
				Body   []byte
			}{m.ID, m.Op, m.Body}, encodeCall(m.ID, m.Op, m.Body), nil
		}},
		{"reply", [][]byte{
			encodeReply(7, nil, marshal(&payload, exportReplyFields)),
			encodeReply(8, fmt.Errorf("%w: opcode 300", wire.ErrCorrupt), nil),
		}, func(p []byte) (any, []byte, error) {
			var m reply
			if err := wire.Unmarshal(p, &m, replyFields); err != nil {
				return nil, nil, err
			}
			var callErr error
			if m.Err != "" || m.Corrupt {
				callErr = replyError{m.Err, m.Corrupt}
			}
			return struct {
				CallID  int64
				ErrStr  string
				Corrupt bool
				Body    []byte
			}{m.ID, m.Err, m.Corrupt, m.Body}, encodeReply(m.ID, callErr, m.Body), nil
		}},
		{"drain", [][]byte{marshal(&drainReply{[]int64{3, 0, -1, math.MaxInt64}, 2, "replay: boom"}, drainFields)}, roundTripOf(drainFields)},
		{"churnCall", [][]byte{goldenChurnCall()}, roundTripOf(churnCallFields)},
		{"groups", [][]byte{marshal(&groups, groupsFields)}, roundTripOf(groupsFields)},
		{"sideCall", [][]byte{marshal(&sideCall{OpID: 3, Side: 1, KeyAttr: 2}, sideCallFields)}, roundTripOf(sideCallFields)},
		{"bytesField1", [][]byte{marshal(&payload, exportReplyFields)}, roundTripOf(exportReplyFields)},
		{"importCall", [][]byte{marshal(&sideCall{OpID: 3, Payload: payload}, importCallFields)}, roundTripOf(importCallFields)},
		{"hist", [][]byte{marshal(histOf(map[int64]int64{-5: 7, 1: 2, 1 << 40: 3}), histFields)}, func(p []byte) (any, []byte, error) {
			var m hist
			if err := wire.Unmarshal(p, &m, histFields); err != nil {
				return nil, nil, err
			}
			h := m.histogram()
			return h, marshal(histOf(h), histFields), nil
		}},
		{"stats", [][]byte{marshal(statsOf(goldenStats()), statsFields)}, func(p []byte) (any, []byte, error) {
			var m stats
			if err := wire.Unmarshal(p, &m, statsFields); err != nil {
				return nil, nil, err
			}
			s := m.snapshot()
			return s, marshal(statsOf(s), statsFields), nil
		}},
	}
}

// batchCodec is the WAL batch decoder over the short codecBatches.
func batchCodec() codec {
	var seeds [][]byte
	for i, batch := range codecBatches() {
		if p := encodeBatch(int64(i), batch); len(p) <= 512 {
			seeds = append(seeds, p)
		}
	}
	return codec{"batch", seeds, func(p []byte) (any, []byte, error) {
		var d batch
		seq, entries, err := d.decode(p)
		if err != nil {
			return nil, nil, err
		}
		return entries, encodeBatch(seq, entries), nil
	}}
}

// decodeCorpus is the valid encoding p, every truncation of it, and every
// single-byte flip of its first 64 bytes.
func decodeCorpus(p []byte) [][]byte {
	cases := [][]byte{p}
	for n := 0; n < len(p); n++ {
		cases = append(cases, p[:n])
	}
	for i := 0; i < len(p) && i < 64; i++ {
		for _, b := range []byte{0x00, 0xff, p[i] ^ 0x80} {
			c := bytes.Clone(p)
			c[i] = b
			cases = append(cases, c)
		}
	}
	return cases
}

// goldenLine summarizes one decoder's corpus: cases, ok and error counts,
// and a SHA-256 over every outcome in corpus order.
func goldenLine(c codec) string {
	h := sha256.New()
	cases, oks := 0, 0
	for _, seed := range c.seeds {
		for _, p := range decodeCorpus(seed) {
			cases++
			_, enc, err := c.roundTrip(p)
			if err != nil {
				fmt.Fprintf(h, "%x error %q corrupt=%v\n", p, err, errors.Is(err, wire.ErrCorrupt))
				continue
			}
			oks++
			fmt.Fprintf(h, "%x ok %x\n", p, sha256.Sum256(enc))
		}
	}
	return fmt.Sprintf("%s cases=%d ok=%d err=%d sha256=%x\n", c.name, cases, oks, cases-oks, h.Sum(nil))
}

func TestDecodeGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range append([]codec{batchCodec()}, controlCodecs()...) {
		b.WriteString(goldenLine(c))
	}
	got := b.String()
	path := filepath.Join("testdata", "decode.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("decode outcomes differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
