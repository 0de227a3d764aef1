package wire_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/expr"
	"repro/internal/live"
	"repro/internal/mop"
	"repro/internal/rules"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The decode golden pins what every decoder makes of a corpus built from
// valid encodings: the valid input, every truncation of it, and every
// single-byte flip of its first 64 bytes to 0x00, 0xff and b^0x80. Each
// outcome is the error text and whether it wraps wire.ErrCorrupt, or the
// SHA-256 of the decoded value re-encoded. A rewrite of a decoder must
// reproduce testdata/decode.golden byte for byte; regenerate it only for
// an intended change of decode outcomes:
//
//	go test ./internal/wire -run DecodeGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the goldens under internal/wire/testdata")

// goldenDecoder is one decoder under the golden: the valid encodings its
// corpus grows from, and a function that decodes p and re-encodes the
// value it got.
type goldenDecoder struct {
	name     string
	fixtures [][]byte
	reencode func(p []byte) ([]byte, error)
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

// decodeOutcome decodes one case and renders what came of it.
func decodeOutcome(reencode func([]byte) ([]byte, error), p []byte) (ok bool, out string) {
	enc, err := reencode(p)
	if err != nil {
		return false, fmt.Sprintf("error %q corrupt=%v", err, errors.Is(err, wire.ErrCorrupt))
	}
	return true, fmt.Sprintf("ok %x", sha256.Sum256(enc))
}

// goldenLine summarizes one decoder's corpus: cases, ok and error counts,
// and a SHA-256 over every outcome in corpus order.
func goldenLine(d goldenDecoder) string {
	h := sha256.New()
	cases, oks := 0, 0
	for _, fx := range d.fixtures {
		for _, c := range decodeCorpus(fx) {
			ok, out := decodeOutcome(d.reencode, c)
			cases++
			if ok {
				oks++
			}
			fmt.Fprintf(h, "%x %s\n", c, out)
		}
	}
	return fmt.Sprintf("%s cases=%d ok=%d err=%d sha256=%x\n", d.name, cases, oks, cases-oks, h.Sum(nil))
}

// checkDecodeGolden compares the decoders' lines with testdata/decode.golden,
// or rewrites it under -update.
func checkDecodeGolden(t *testing.T, decoders []goldenDecoder) {
	t.Helper()
	var b strings.Builder
	for _, d := range decoders {
		b.WriteString(goldenLine(d))
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

// optimizedPhysical adds qs to a fresh plan and optimizes it with channels
// on.
func optimizedPhysical(t testing.TB, cat map[string]core.SourceDecl, qs []*core.Query) *core.Physical {
	t.Helper()
	p := core.NewPhysical(cat)
	for _, q := range qs {
		if err := p.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	return p
}

// w2Physical is Workload 2 at 20 queries, optimized with channels on.
func w2Physical(t testing.TB) *core.Physical {
	prm := workload.DefaultParams()
	prm.NumQueries = 20
	qs, err := workload.ToRUMOR(prm.Workload2Seq())
	if err != nil {
		t.Fatal(err)
	}
	return optimizedPhysical(t, prm.Catalog(), qs)
}

// w2Plan is w2Physical's snapshot.
func w2Plan(t testing.TB) *core.PlanSnapshot { return w2Physical(t).Snapshot() }

// cqlScript has every operator kind CQL can express: filter, project with
// arithmetic, aggregate with BY, join, seq and µ with a keep filter.
const cqlScript = `
CREATE STREAM S(a, b, c);
CREATE STREAM T(a, b, c);
CREATE STREAM CPU(pid, load);
QUERY flt := PROJECT(a, b * 2 + c FROM FILTER(a = 3 AND (b > 10 OR c != 4), S));
QUERY agg := AGG(avg(b) OVER 30 BY a FROM S);
QUERY jn := JOIN(S, T ON LEFT.a = EVENT.a WINDOW 20);
QUERY sq := SEQ(S, T ON LEFT.b < EVENT.b WINDOW 15);
LET smoothed := AGG(avg(load) OVER 5 BY pid FROM CPU);
QUERY ramp := FILTER(r_load > 9,
    MU(FILTER(load < 3, @smoothed), @smoothed
       ON LAST.pid = EVENT.pid AND LAST.load < EVENT.load
       KEEP LAST.pid != EVENT.pid
       WINDOW 3600));
`

// cqlPhysical is cqlScript optimized with channels on.
func cqlPhysical(t testing.TB) *core.Physical {
	s, err := cql.Parse(cqlScript)
	if err != nil {
		t.Fatal(err)
	}
	return optimizedPhysical(t, s.Catalog, s.Queries)
}

// cqlPlan is cqlPhysical's snapshot.
func cqlPlan(t testing.TB) *core.PlanSnapshot { return cqlPhysical(t).Snapshot() }

// goldenPartition sets every field of a partition plan.
func goldenPartition() *core.PartitionPlan {
	return &core.PartitionPlan{
		Routes: map[string]core.SourceRoute{
			"S": {Mode: core.PartitionHash, Attr: 0},
			"T": {Mode: core.PartitionMulticast, Attr: 1,
				Table:  map[int64][]int64{-4: {1, 2}, 9: {3}},
				Always: []int64{7, -8}},
		},
		ReplicatedSinks: map[int]bool{1: true, 3: true},
		Parallel:        true,
		Table:           &core.RoutingTable{Version: 2, Moves: map[int64][]int{5: {0, 1}, -6: {1}}},
	}
}

func goldenPred() expr.Pred {
	return expr.And{Parts: []expr.Pred{
		expr.ConstCmp{Attr: 1, Op: expr.Gt, C: -7},
		expr.Or{Parts: []expr.Pred{expr.AttrCmp{A: 0, Op: expr.Eq, B: 2}, expr.Not{P: expr.True{}}}},
		expr.False{},
	}}
}

func goldenPred2() expr.Pred2 {
	return expr.And2{Parts: []expr.Pred2{
		expr.AttrCmp2{L: 0, Op: expr.Eq, R: 1},
		expr.Left{P: expr.ConstCmp{Attr: 2, Op: expr.Lt, C: 5}},
		expr.Right{P: goldenPred()},
		expr.Duration{W: 60},
		expr.Or2{Parts: []expr.Pred2{expr.True2{}, expr.Not2{P: expr.False2{}}}},
	}}
}

func goldenSchemaMap() *expr.SchemaMap {
	return &expr.SchemaMap{Cols: []expr.Expr{
		expr.Col{I: 2}, expr.Lit{C: -9}, expr.TS{},
		expr.Arith{Op: expr.Mul, L: expr.Col{I: 0}, R: expr.Arith{Op: expr.Add, L: expr.Lit{C: 3}, R: expr.TS{}}},
	}}
}

func goldenDefs() []*core.Def {
	return []*core.Def{
		{Kind: core.KindSelect, Pred: goldenPred()},
		{Kind: core.KindProject, Map: goldenSchemaMap()},
		{Kind: core.KindAgg, Agg: core.AggAvg, AggAttr: 1, GroupBy: []int{0, 2}, Window: 30},
		{Kind: core.KindMu, Pred2: goldenPred2(), Filter2: expr.Not2{P: expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}}, Window: 3600},
	}
}

// goldenCheckpoint sets every field of a checkpoint envelope.
func goldenCheckpoint(t testing.TB) *wire.Checkpoint {
	pl, err := mop.NewStatePayload(mop.WireKindSeq, 1, kindItems(mop.WireKindSeq))
	if err != nil {
		t.Fatal(err)
	}
	return &wire.Checkpoint{
		Shards:     2,
		Channels:   true,
		Plan:       cqlPlan(t),
		Partition:  goldenPartition(),
		Counts:     []wire.QueryCount{{ID: 0, Count: 12}, {ID: 7, Count: -1}},
		Frozen:     []wire.NamedCount{{Name: "old", Count: 99}},
		FrozenByID: []wire.QueryCount{{ID: 3, Count: 98}},
		Groups:     []wire.GroupState{{Shard: 1, OpID: 11, Payload: pl}},
	}
}

func goldenChurnLog(t testing.TB) []byte {
	s, err := cql.Parse(cqlScript)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, rec := range []*wire.ChurnRecord{
		{Op: wire.ChurnAdd, Name: "flt", Root: s.Queries[0].Root, Fingerprint: 0xfedc_ba98_7654_3210},
		{Op: wire.ChurnRemove, Name: "agg", Fingerprint: 1},
	} {
		if err := wire.AppendChurnRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// wireDecoders lists every decoder of the package with its fixtures.
func wireDecoders(t testing.TB) []goldenDecoder {
	must := func(p []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var payloads [][]byte
	for _, kind := range []uint8{mop.WireKindAgg, mop.WireKindJoin, mop.WireKindSeq, mop.WireKindMu} {
		pl, err := mop.NewStatePayload(kind, 1, kindItems(kind))
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, wire.EncodePayloadBytes(pl))
	}
	var defs [][]byte
	for _, d := range goldenDefs() {
		defs = append(defs, must(wire.EncodeDef(d)))
	}
	cqlRoots := func() [][]byte {
		s, err := cql.Parse(cqlScript)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, q := range s.Queries {
			out = append(out, must(wire.EncodeLogical(q.Root)))
		}
		return out
	}
	ckp := goldenCheckpoint(t)
	var framed bytes.Buffer
	if err := wire.WriteCheckpoint(&framed, ckp); err != nil {
		t.Fatal(err)
	}
	reencodePlan := func(p []byte) ([]byte, error) {
		s, err := wire.DecodePlanBytes(p)
		if err != nil {
			return nil, err
		}
		return wire.EncodePlanBytes(s)
	}
	return []goldenDecoder{
		{"plan/w2", [][]byte{must(wire.EncodePlanBytes(w2Plan(t)))}, reencodePlan},
		{"plan/cql", [][]byte{must(wire.EncodePlanBytes(cqlPlan(t)))}, reencodePlan},
		{"partition", [][]byte{must(wire.EncodePartitionBytes(goldenPartition()))}, func(p []byte) ([]byte, error) {
			pp, err := wire.DecodePartitionBytes(p)
			if err != nil {
				return nil, err
			}
			return wire.EncodePartitionBytes(pp)
		}},
		{"payload", payloads, func(p []byte) ([]byte, error) {
			pl, err := wire.DecodePayloadBytes(p)
			if err != nil {
				return nil, err
			}
			return wire.EncodePayloadBytes(pl), nil
		}},
		{"checkpoint", [][]byte{must(wire.EncodeCheckpointBytes(ckp))}, func(p []byte) ([]byte, error) {
			c, err := wire.DecodeCheckpointBytes(p)
			if err != nil {
				return nil, err
			}
			return wire.EncodeCheckpointBytes(c)
		}},
		{"checkpoint/framed", [][]byte{framed.Bytes()}, func(p []byte) ([]byte, error) {
			c, err := wire.ReadCheckpoint(bytes.NewReader(p))
			if err != nil {
				return nil, err
			}
			return wire.EncodeCheckpointBytes(c)
		}},
		{"churnlog", [][]byte{goldenChurnLog(t)}, func(p []byte) ([]byte, error) {
			recs, err := wire.ReadChurnLog(bytes.NewReader(p))
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			for _, rec := range recs {
				if err := wire.AppendChurnRecord(&buf, rec); err != nil {
					return nil, err
				}
			}
			return buf.Bytes(), nil
		}},
		{"pred", [][]byte{must(wire.EncodePred(goldenPred()))}, func(p []byte) ([]byte, error) {
			q, err := wire.DecodePred(p, 0)
			if err != nil {
				return nil, err
			}
			return wire.EncodePred(q)
		}},
		{"pred2", [][]byte{must(wire.EncodePred2(goldenPred2()))}, func(p []byte) ([]byte, error) {
			q, err := wire.DecodePred2(p, 0)
			if err != nil {
				return nil, err
			}
			return wire.EncodePred2(q)
		}},
		{"expr", [][]byte{must(wire.EncodeExpr(goldenSchemaMap().Cols[3]))}, func(p []byte) ([]byte, error) {
			e, err := wire.DecodeExpr(p, 0)
			if err != nil {
				return nil, err
			}
			return wire.EncodeExpr(e)
		}},
		{"schemamap", [][]byte{must(wire.EncodeSchemaMap(goldenSchemaMap()))}, func(p []byte) ([]byte, error) {
			m, err := wire.DecodeSchemaMap(p)
			if err != nil {
				return nil, err
			}
			return wire.EncodeSchemaMap(m)
		}},
		{"def", defs, func(p []byte) ([]byte, error) {
			d, err := wire.DecodeDef(p)
			if err != nil {
				return nil, err
			}
			return wire.EncodeDef(d)
		}},
		{"logical", cqlRoots(), func(p []byte) ([]byte, error) {
			l, err := wire.DecodeLogical(p)
			if err != nil {
				return nil, err
			}
			return wire.EncodeLogical(l)
		}},
	}
}

func TestDecodeGolden(t *testing.T) {
	checkDecodeGolden(t, wireDecoders(t))
}

// The fingerprint golden pins wire.FingerprintPlan over the fixture plans
// and the fingerprints a churn log records: a churn log written by one
// build must replay on the next, which recomputes every fingerprint it
// logged. The log is live maintenance on the CQL plan, one add and one
// remove, each record carrying the fingerprint of the plan it left.
// Regenerate only for an intended change of the plan encoding:
//
//	go test ./internal/wire -run FingerprintGolden -update
func TestFingerprintGolden(t *testing.T) {
	var b strings.Builder
	fingerprint := func(p *core.Physical) uint64 {
		t.Helper()
		fp, err := wire.FingerprintPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	fmt.Fprintf(&b, "plan/w2 fingerprint=%016x\n", fingerprint(w2Physical(t)))
	plan := cqlPhysical(t)
	fmt.Fprintf(&b, "plan/cql fingerprint=%016x\n", fingerprint(plan))

	m := live.NewMaintainer(plan, rules.Options{Channels: true})
	var log bytes.Buffer
	again := core.NewQuery("flt_again", plan.Queries[0].Root)
	if _, err := m.AddQuery(again); err != nil {
		t.Fatal(err)
	}
	recs := []*wire.ChurnRecord{{Op: wire.ChurnAdd, Name: again.Name, Root: again.Root, Fingerprint: fingerprint(plan)}}
	gone := plan.Queries[1]
	if _, err := m.RemoveQuery(gone.ID); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, &wire.ChurnRecord{Op: wire.ChurnRemove, Name: gone.Name, Fingerprint: fingerprint(plan)})
	for _, rec := range recs {
		if err := wire.AppendChurnRecord(&log, rec); err != nil {
			t.Fatal(err)
		}
	}
	read, err := wire.ReadChurnLog(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range read {
		fmt.Fprintf(&b, "churnlog record=%d op=%d name=%s fingerprint=%016x\n", i, rec.Op, rec.Name, rec.Fingerprint)
	}
	fmt.Fprintf(&b, "churnlog bytes=%d sha256=%x\n", log.Len(), sha256.Sum256(log.Bytes()))

	got := b.String()
	path := filepath.Join("testdata", "fingerprint.golden")
	if *updateGolden {
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
		t.Errorf("fingerprints differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
