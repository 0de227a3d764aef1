package mop

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/stream"
)

// Differential test of the ;/µ block kernel: twin m-ops lowered from one
// plan node, one fed blocks through ProcessBlock, the other the same live
// rows one by one through Process. They must emit the same tuples to the
// same ports in the same order, and end with the same operator state.

func seqBlockCatalog() map[string]core.SourceDecl {
	c := map[string]core.SourceDecl{
		"S": {Schema: stream.MustSchema("S", "a", "b", "c")},
		"T": {Schema: stream.MustSchema("T", "a", "b", "c")},
		"U": {Schema: stream.MustSchema("U", "a", "b", "c")},
	}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("S%d", i)
		c[name] = core.SourceDecl{Schema: stream.MustSchema(name, "a", "b", "c"), Label: "sh"}
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("T%d", i)
		c[name] = core.SourceDecl{Schema: stream.MustSchema(name, "a", "b", "c"), Label: "tr"}
	}
	return c
}

func eqConst(attr int, c int64) expr.Pred { return expr.ConstCmp{Attr: attr, Op: expr.Eq, C: c} }

// seqBlockRoots is the ; operator mix. Over T: AN-indexed groups on two
// attributes (one sharing state across windows), an FR-indexed group,
// AI-hashed groups, unindexed (rest) groups with and without a residual, an
// insertion-time left predicate, an unbounded window, and sharable left
// sources (one channel under c;). Over U: AN-indexed groups only, so rows
// that no constant names are skipped on the column. Over T1/T2: sharable
// right sources (a channel right edge).
func seqBlockRoots() []*core.Logical {
	s, t, u := core.Scan("S"), core.Scan("T"), core.Scan("U")
	sel := core.SelectL(eqConst(0, 1), s)
	roots := []*core.Logical{
		core.SeqL(expr.NewAnd2(expr.Right{P: eqConst(0, 2)}), 5, sel, u),
		core.SeqL(expr.NewAnd2(expr.Right{P: eqConst(0, 3)}, expr.AttrCmp2{L: 1, Op: expr.Eq, R: 1}), 6, s, u),
		core.SeqL(expr.NewAnd2(expr.Left{P: eqConst(0, 1)}, expr.Right{P: eqConst(1, 0)}), 7, s, u),
		core.SeqL(expr.NewAnd2(expr.Right{P: eqConst(0, 2)}), 5, sel, t),
		core.SeqL(expr.NewAnd2(expr.Right{P: eqConst(0, 2)}), 9, sel, t),
		core.SeqL(expr.NewAnd2(expr.Right{P: eqConst(0, 3)}, expr.AttrCmp2{L: 1, Op: expr.Eq, R: 1}), 6, s, t),
		core.SeqL(expr.NewAnd2(expr.Left{P: eqConst(0, 1)}, expr.Right{P: eqConst(1, 0)}), 7, s, t),
		core.SeqL(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, 4, s, t),
		core.SeqL(expr.AttrCmp2{L: 2, Op: expr.Lt, R: 2}, 3, s, t),
		core.SeqL(expr.AttrCmp2{L: 2, Op: expr.Lt, R: 2}, 0, s, t),
		core.SeqL(expr.NewAnd2(expr.Left{P: expr.ConstCmp{Attr: 1, Op: expr.Lt, C: 2}}, expr.Right{P: eqConst(0, 2)}), 8, s, t),
	}
	for i := 1; i <= 3; i++ {
		si := core.Scan(fmt.Sprintf("S%d", i))
		roots = append(roots, core.SeqL(expr.NewAnd2(expr.Right{P: eqConst(0, 1)}, expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}), 8, si, t))
	}
	for i := 1; i <= 2; i++ {
		ti := core.Scan(fmt.Sprintf("T%d", i))
		// The shared selection is what encodes T1 and T2 into one channel.
		roots = append(roots,
			core.SelectL(expr.ConstCmp{Attr: 0, Op: expr.Lt, C: 3}, ti),
			core.SeqL(expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}, 6, s, ti),
			core.SeqL(expr.NewAnd2(expr.Right{P: eqConst(1, 1)}), 6, s, ti))
	}
	return roots
}

// muBlockRoots is the µ mix: a stable AI hash, an AN-indexed rebind edge
// (beside unindexed groups over T, alone over U), an equi-join on the
// mutable last part (evaluated inline) and sharable left sources.
func muBlockRoots() []*core.Logical {
	s, t, u := core.Scan("S"), core.Scan("T"), core.Scan("U")
	const arity = 3
	rising := expr.AttrCmp2{L: arity + 1, Op: expr.Lt, R: 1} // last.b < T.b
	sameKey := expr.AttrCmp2{L: 0, Op: expr.Eq, R: 0}
	roots := []*core.Logical{
		core.MuL(expr.NewAnd2(sameKey, rising), expr.Not2{P: sameKey}, 9, s, t),
		core.MuL(expr.NewAnd2(sameKey, rising), expr.Not2{P: sameKey}, 0, s, t),
		core.MuL(expr.NewAnd2(expr.Right{P: eqConst(0, 2)}, rising), expr.Right{P: eqConst(2, 0)}, 7,
			core.SelectL(eqConst(0, 1), s), t),
		core.MuL(expr.NewAnd2(expr.AttrCmp2{L: arity, Op: expr.Eq, R: 0}, rising), expr.False2{}, 6, s, t),
		core.MuL(expr.NewAnd2(expr.Right{P: eqConst(0, 2)}, rising), expr.Right{P: eqConst(2, 0)}, 7, s, u),
		core.MuL(expr.NewAnd2(expr.Right{P: eqConst(1, 3)}, sameKey), expr.Not2{P: sameKey}, 5, s, u),
	}
	for i := 1; i <= 3; i++ {
		si := core.Scan(fmt.Sprintf("S%d", i))
		roots = append(roots, core.MuL(expr.NewAnd2(sameKey, rising), expr.Not2{P: sameKey}, 8, si, t))
	}
	return roots
}

// seqBlockPlans holds the four optimized fixture plans (; and µ, plain and
// channel), built once: lowering is repeatable, so every run gets fresh
// twins from the shared plan.
var seqBlockPlans [4]*core.Physical

func seqBlockPlan(tb testing.TB, cfg int) *core.Physical {
	tb.Helper()
	if p := seqBlockPlans[cfg]; p != nil {
		return p
	}
	roots := seqBlockRoots()
	if cfg&2 != 0 {
		roots = muBlockRoots()
	}
	p := core.NewPhysical(seqBlockCatalog())
	for i, r := range roots {
		if err := p.AddQuery(core.NewQuery(fmt.Sprintf("q%d", i), r)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rules.Optimize(p, rules.Options{Channels: cfg&1 != 0}); err != nil {
		tb.Fatal(err)
	}
	seqBlockPlans[cfg] = p
	return p
}

// seqNodes returns the plan's ;/µ nodes in ID order.
func seqNodes(p *core.Physical) []*core.Node {
	var out []*core.Node
	for _, n := range p.Nodes {
		if n.Kind == core.KindSeq || n.Kind == core.KindMu {
			out = append(out, n)
		}
	}
	slices.SortFunc(out, func(a, b *core.Node) int { return a.ID - b.ID })
	return out
}

// TestSeqBlockFixtureCoverage keeps the fixtures honest: between them the
// lowered m-ops must contain every dispatch and matching shape the kernel
// forks on, or the differential runs below would pass vacuously.
func TestSeqBlockFixtureCoverage(t *testing.T) {
	var an, anOnly, fr, restR, hash, inlineEq, leftPred, leftChan, rightChan bool
	for cfg := range seqBlockPlans {
		p := seqBlockPlan(t, cfg)
		for _, n := range seqNodes(p) {
			low, err := Lower(p, n, stream.NewPool())
			if err != nil {
				t.Fatal(err)
			}
			m := low.MOp.(*SeqMOp)
			if !m.BlockReady() {
				t.Fatalf("cfg %d node %d is not block-ready", cfg, n.ID)
			}
			for _, ld := range m.lefts {
				fr = fr || (ld != nil && len(ld.fr) > 0)
			}
			for _, rd := range m.rights {
				if rd != nil {
					an = an || len(rd.an) > 0
					anOnly = anOnly || (len(rd.an) > 1 && len(rd.rest) == 0)
					restR = restR || len(rd.rest) > 0
				}
			}
			for _, g := range m.groups() {
				hash = hash || g.hash != nil
				inlineEq = inlineEq || (g.hasEq && g.hash == nil)
				leftPred = leftPred || g.leftPred != nil
				for _, o := range g.ops {
					leftChan = leftChan || o.leftPos >= 0
					rightChan = rightChan || o.rightPos >= 0
				}
			}
		}
	}
	for name, ok := range map[string]bool{
		"AN index": an, "port with two AN indexes and no unindexed group": anOnly, "FR index": fr,
		"unindexed right group": restR,
		"AI hash":               hash, "inline equi-join": inlineEq, "insertion-time left predicate": leftPred,
		"channel left port": leftChan, "channel right port": rightChan,
	} {
		if !ok {
			t.Errorf("no fixture m-op has a %s", name)
		}
	}
}

// byteSource hands out the decisions of one differential run; an exhausted
// source yields zeros, so every input decodes to some run.
type byteSource struct {
	data []byte
	pos  int
}

func (s *byteSource) next() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *byteSource) word() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w |= uint64(s.next()) << uint(8*i)
	}
	return w
}

// recorder captures an emission sequence as strings (emitted tuples are
// pooled, so they are rendered before the m-op can reuse them).
type recorder struct{ out []string }

func (r *recorder) emit(port int, t *stream.Tuple) {
	r.out = append(r.out, fmt.Sprintf("%d:%s", port, t))
}

// exportKeys removes the instances whose attribute-0 key sel accepts from
// every state group of m, returning the payloads in group order.
func exportKeys(m *SeqMOp, sel func(key int64) bool) []*StatePayload {
	var pls []*StatePayload
	for _, g := range m.groups() {
		pls = append(pls, g.exportKeyed(0, 0, func(key int64, _ int) bool { return sel(key) }))
	}
	return pls
}

// renderPayloads renders exported instances, one line each.
func renderPayloads(pls []*StatePayload) []string {
	var out []string
	for gi, pl := range pls {
		for _, it := range pl.items {
			out = append(out, fmt.Sprintf("g%d key=%d ts=%d start=%s state=%s member=%v",
				gi, it.Key, it.TS, it.Start, it.State, it.Member))
		}
	}
	return out
}

// exportAll drains every state group of m and renders the payloads.
func exportAll(m *SeqMOp) []string {
	return renderPayloads(exportKeys(m, func(int64) bool { return true }))
}

// runSeqBlockDiff decodes blocks from data and drives twin m-ops of every
// ;/µ node of fixture cfg, failing on the first divergence. It returns the
// number of tuples the m-ops emitted.
//
// Halfway through the blocks both twins export the instances of the even
// keys. The twins then keep running, expiring, matching and recycling what
// they still hold, and the exported payloads must render as they did when
// they left: an exported tuple belongs to its payload, and a store that
// recycled one it no longer owns shows up here as a changed rendering.
func runSeqBlockDiff(t *testing.T, cfg int, data []byte) (emitted int) {
	p := seqBlockPlan(t, cfg)
	for _, n := range seqNodes(p) {
		src := &byteSource{data: data}
		lowRows, err := Lower(p, n, stream.NewPool())
		if err != nil {
			t.Fatal(err)
		}
		lowBlk, err := Lower(p, n, stream.NewPool())
		if err != nil {
			t.Fatal(err)
		}
		rows, blk := lowRows.MOp.(*SeqMOp), lowBlk.MOp.(*SeqMOp)
		var recRows, recBlk recorder
		bp := stream.NewBlockPool()
		noBlocks := func(int, *stream.Block) { t.Fatal("seq kernel emitted a block") }
		ts := int64(0)
		var earlyRows, earlyBlk []*StatePayload
		var early []string
		nb := 4 + int(src.next()%12)
		for bi := 0; bi < nb; bi++ {
			if bi == nb/2 {
				even := func(key int64) bool { return key%2 == 0 }
				earlyRows, earlyBlk = exportKeys(rows, even), exportKeys(blk, even)
				early = renderPayloads(earlyRows)
				if eb := renderPayloads(earlyBlk); !slices.Equal(early, eb) {
					t.Fatalf("cfg %d node %d: midway export diverges\nrows:   %v\nblocks: %v", cfg, n.ID, early, eb)
				}
			}
			port := int(src.next()) % len(lowBlk.InEdges)
			edge := lowBlk.InEdges[port]
			nrows := 1 + int(src.next())%70
			b := bp.Get(nrows, 3)
			for i := 0; i < nrows; i++ {
				ts += int64(src.next() % 3)
				b.TS[i] = ts
				for a := range b.Cols {
					b.Cols[a][i] = int64(src.next() % 4)
				}
			}
			for wi := range b.Sel {
				b.Sel[wi] = src.word()
			}
			if tail := nrows & 63; tail != 0 {
				b.Sel[len(b.Sel)-1] &= 1<<uint(tail) - 1
			}
			if edge.IsChannel() {
				bp.GetMember(b)
				for i := range b.Member {
					b.Member[i] = uint64(src.next()) & (1<<uint(len(edge.Streams)) - 1)
				}
			}

			for i := 0; i < nrows; i++ {
				if b.Sel[i>>6]&(1<<uint(i&63)) == 0 {
					continue
				}
				tu := &stream.Tuple{TS: b.TS[i], Vals: make([]int64, len(b.Cols))}
				for a, col := range b.Cols {
					tu.Vals[a] = col[i]
				}
				if b.Member != nil && b.Member[i] != 0 {
					tu.Member = bitset.FromWord(b.Member[i])
				}
				rows.Process(port, tu, recRows.emit)
			}
			blk.ProcessBlock(port, b, bp, recBlk.emit, noBlocks)
			bp.Put(b)

			if !slices.Equal(recRows.out, recBlk.out) {
				t.Fatalf("cfg %d node %d: emissions diverge after a block on port %d\nrows:   %v\nblocks: %v",
					cfg, n.ID, port, recRows.out, recBlk.out)
			}
			if rows.Size() != blk.Size() {
				t.Fatalf("cfg %d node %d: Size %d by rows, %d by blocks", cfg, n.ID, rows.Size(), blk.Size())
			}
		}
		if er, eb := exportAll(rows), exportAll(blk); !slices.Equal(er, eb) {
			t.Fatalf("cfg %d node %d: exported state diverges\nrows:   %v\nblocks: %v", cfg, n.ID, er, eb)
		}
		for name, pls := range map[string][]*StatePayload{"rows": earlyRows, "blocks": earlyBlk} {
			if now := renderPayloads(pls); !slices.Equal(now, early) {
				t.Fatalf("cfg %d node %d: the %s twin's midway export changed after it left the store\nthen: %v\nnow:  %v",
					cfg, n.ID, name, early, now)
			}
		}
		emitted += len(recBlk.out)
	}
	return emitted
}

// TestSeqBlockMatchesProcess is the property test: random runs over every
// fixture. It also checks that the runs are not vacuous.
func TestSeqBlockMatchesProcess(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	data := make([]byte, 8<<10)
	for cfg := range seqBlockPlans {
		emitted := 0
		for run := 0; run < 60; run++ {
			r.Read(data)
			emitted += runSeqBlockDiff(t, cfg, data)
		}
		if emitted < 200 {
			t.Errorf("cfg %d: only %d emissions over all runs; the comparison is near-vacuous", cfg, emitted)
		}
		t.Logf("cfg %d: %d emissions compared", cfg, emitted)
	}
}

// FuzzSeqBlock lets the fuzzer pick the fixture and every block.
func FuzzSeqBlock(f *testing.F) {
	f.Add([]byte{0, 5, 0, 40, 1, 1, 2, 3, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{1, 9, 1, 64, 0, 2, 2, 0, 1, 1, 0, 1, 170, 170, 170, 170, 85, 85, 85, 85})
	f.Add([]byte{2, 3, 2, 8, 2, 0, 1, 2, 0, 0, 3, 1, 255, 0, 255, 0, 255, 0, 255, 0})
	f.Add([]byte{3, 7, 0, 69, 1, 1, 1, 1, 0, 1, 2, 2, 15, 240, 15, 240, 15, 240, 15, 240})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runSeqBlockDiff(t, int(data[0])%len(seqBlockPlans), data[1:])
	})
}
