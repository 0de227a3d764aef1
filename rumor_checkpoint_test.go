package rumor_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	rumor "repro"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faultpoint"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Checkpoint → Restore on a churned engine: after ≥500 live add/remove
// operations interleaved with pushes, a restored system must reproduce
// the original's PlanInfo (including live/total slot accounting), frozen
// counts, and — on the next 10k events pushed into both — identical
// per-query results.

// churnThenCheckpoint drives ops churn operations (half adds, half
// removes of transient queries) interleaved with pushes of warm.
func churnTransients(t *testing.T, sys churnSys, trans []*core.Query, warm []workload.Event, ops int) {
	t.Helper()
	adds := ops/2 + 2 // two transients stay in flight and are never removed
	chunk := len(warm) / (adds + 1)
	removeAt := 2 // keep a couple of transients in flight
	added, removed := 0, 0
	for i := 0; i < adds; i++ {
		lo := i * chunk
		for _, ev := range warm[lo : lo+chunk] {
			if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("tr_%d", i)
		if err := sys.AddQueryLive(name, trans[i%len(trans)].Root); err != nil {
			t.Fatal(err)
		}
		added++
		if added-removed > removeAt {
			if err := sys.RemoveQuery(fmt.Sprintf("tr_%d", removed)); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	for ; removed < added-removeAt; removed++ {
		if err := sys.RemoveQuery(fmt.Sprintf("tr_%d", removed)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range warm[adds*chunk:] {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	if added+removed < ops {
		t.Fatalf("only %d churn ops, want ≥ %d", added+removed, ops)
	}
}

type restorableSys interface {
	churnSys
	Checkpoint(w io.Writer) error
	PlanInfo() rumor.PlanInfo
	Settle() // drain; no-op for the single-threaded System
}

// sysAdapter lifts *rumor.System / *rumor.ShardedSystem into the harness
// interface.
type sysAdapter struct {
	churnSys
	ckpt   func(io.Writer) error
	info   func() rumor.PlanInfo
	settle func()
}

func (a sysAdapter) Checkpoint(w io.Writer) error { return a.ckpt(w) }
func (a sysAdapter) PlanInfo() rumor.PlanInfo     { return a.info() }
func (a sysAdapter) Settle() {
	if a.settle != nil {
		a.settle()
	}
}

func checkpointRestoreChurned(t *testing.T, mk func() restorableSys,
	restore func([]byte) restorableSys) {
	t.Helper()
	catalog, surv, events := churnWorkload(t, "w2", 24, 4000, 5)
	_, trans, _ := churnWorkload(t, "w2", 24, 0, 77)
	p := workload.DefaultParams()
	p.Seed = 21
	p.ConstDomain = 50
	p.WindowDomain = 200
	next10k := p.GenStreams(14000)[4000:] // continues past the warmup timestamps

	sys := mk()
	declareAll(t, sys, catalog)
	for _, q := range surv {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
		t.Fatal(err)
	}
	churnTransients(t, sys, trans, events, 500)
	sys.Settle()

	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	res := restore(buf.Bytes())

	got, want := res.PlanInfo(), sys.PlanInfo()
	// BlocksProcessed is a runtime execution counter, not a plan property:
	// it does not survive a restore (the restored system replays nothing).
	got.BlocksProcessed, want.BlocksProcessed = 0, 0
	if got != want {
		t.Fatalf("restored PlanInfo %+v != original %+v", got, want)
	}
	if got, want := res.TotalResults(), sys.TotalResults(); got != want {
		t.Fatalf("restored TotalResults %d != %d", got, want)
	}
	// Frozen counts of removed transients survive restore.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("tr_%d", i)
		if got, want := res.ResultCount(name), sys.ResultCount(name); got != want {
			t.Fatalf("frozen count of %s: restored %d != %d", name, got, want)
		}
	}

	// The next 10k events must produce identical per-query results.
	for _, ev := range next10k {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
		if err := res.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	sys.Settle()
	res.Settle()
	var total int64
	for _, q := range surv {
		got, want := res.ResultCount(q.Name), sys.ResultCount(q.Name)
		if got != want {
			t.Fatalf("query %s: restored run %d results, original %d", q.Name, got, want)
		}
		total += got
	}
	if total == 0 {
		t.Fatal("no results; equivalence is vacuous")
	}
	if got, want := res.TotalResults(), sys.TotalResults(); got != want {
		t.Fatalf("final TotalResults: restored %d != %d", got, want)
	}
}

func TestCheckpointRestoreChurnedSystem(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		adapt := func(s *rumor.System) restorableSys {
			return sysAdapter{churnSys: s, ckpt: s.Checkpoint, info: s.PlanInfo,
				settle: func() { k.settle(t, s) }}
		}
		checkpointRestoreChurned(t,
			func() restorableSys { return adapt(k.new(t)) },
			func(raw []byte) restorableSys { return adapt(k.restore(t, raw)) })
	})
}

func TestCheckpointRestoreChurnedSharded(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var live []*rumor.ShardedSystem
			adapt := func(s *rumor.ShardedSystem) restorableSys {
				live = append(live, s)
				return sysAdapter{churnSys: s, ckpt: s.Checkpoint, info: s.PlanInfo,
					settle: func() {
						if err := s.Drain(); err != nil {
							t.Fatal(err)
						}
					}}
			}
			mk := func() restorableSys {
				return adapt(rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 64}))
			}
			restore := func(raw []byte) restorableSys {
				s, err := rumor.RestoreSharded(bytes.NewReader(raw), rumor.ShardConfig{BatchSize: 64})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := s.NumShards(), shards; got != want {
					t.Fatalf("restored with %d shards, want %d", got, want)
				}
				// The routing-table version survives the round trip.
				if got, want := s.RoutingVersion(), live[0].RoutingVersion(); got != want {
					t.Fatalf("restored routing version %d, original %d", got, want)
				}
				return adapt(s)
			}
			defer func() {
				for _, s := range live {
					s.Close()
				}
			}()
			checkpointRestoreChurned(t, mk, restore)
		})
	}
}

// Kill-then-restore torture: periodic checkpoints while pushing; a fault
// kills a worker; the run resumes on a system restored from the last
// checkpoint with the post-checkpoint suffix re-pushed. Results must be
// exactly equal to an unfaulted single-engine run.
func TestKillThenRestoreTorture(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w3"} {
		for _, shards := range []int{2, 4} {
			for _, fp := range []string{"shard.flush.replay", "shard.drain.ack"} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", wl, shards, fp), func(t *testing.T) {
					killThenRestore(t, wl, shards, fp)
				})
			}
		}
	}
}

func killThenRestore(t *testing.T, wl string, shards int, fp string) {
	defer faultpoint.Reset()
	catalog, qs, events := churnWorkload(t, wl, 30, 4200, 9)

	ref := rumor.New()
	declareAll(t, ref, catalog)
	for _, q := range qs {
		if err := ref.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := ref.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}

	sys := rumor.NewSharded(rumor.ShardConfig{Shards: shards, BatchSize: 64})
	defer func() { sys.Close() }()
	declareAll(t, sys, catalog)
	for _, q := range qs {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}

	const every = 1000
	var last []byte // most recent durable checkpoint
	lastIdx := 0
	checkpoint := func(i int) {
		var b bytes.Buffer
		if err := sys.Checkpoint(&b); err != nil {
			t.Fatalf("checkpoint at %d: %v", i, err)
		}
		last, lastIdx = b.Bytes(), i
	}
	checkpoint(0)
	// Half-way through, arm the kill; the engine dies between two
	// checkpoints and the tail is recovered from the last one.
	armAt := len(events) / 2
	restores := 0
	i := 0
	for i < len(events) {
		if i == armAt {
			faultpoint.Arm(fp, 2)
		}
		if i%every == 0 && i > 0 {
			var b bytes.Buffer
			if err := sys.Checkpoint(&b); err == nil {
				last, lastIdx = b.Bytes(), i
			} else if !errors.Is(err, rumor.ErrShardDead) {
				t.Fatal(err)
			}
			// A dead-worker checkpoint failure falls through: the push
			// below surfaces the death and triggers the restore.
		}
		ev := events[i]
		err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...)
		if err == nil {
			i++
			continue
		}
		if !errors.Is(err, rumor.ErrShardDead) {
			t.Fatal(err)
		}
		// Crash: bring up a fresh system from the last checkpoint and
		// replay the suffix pushed since.
		res, rerr := rumor.RestoreSharded(bytes.NewReader(last), rumor.ShardConfig{BatchSize: 64})
		if rerr != nil {
			t.Fatal(rerr)
		}
		sys.Close()
		sys = res
		restores++
		for _, rev := range events[lastIdx:i] {
			if err := sys.Push(rev.Source, rev.Tuple.TS, rev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Surface a late kill (e.g. on the drain path) and restore once more
	// if needed.
	for {
		err := sys.Drain()
		if err == nil {
			break
		}
		if !errors.Is(err, rumor.ErrShardDead) {
			t.Fatal(err)
		}
		res, rerr := rumor.RestoreSharded(bytes.NewReader(last), rumor.ShardConfig{BatchSize: 64})
		if rerr != nil {
			t.Fatal(rerr)
		}
		sys.Close()
		sys = res
		restores++
		for _, rev := range events[lastIdx:] {
			if err := sys.Push(rev.Source, rev.Tuple.TS, rev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if faultpoint.Hits(fp) < 2 {
		t.Fatalf("fault %s never fired; torture vacuous", fp)
	}
	if restores == 0 {
		t.Fatal("worker death never surfaced; torture vacuous")
	}
	if ref.TotalResults() == 0 {
		t.Fatal("no results; equivalence vacuous")
	}
	for _, q := range qs {
		if got, want := sys.ResultCount(q.Name), ref.ResultCount(q.Name); got != want {
			t.Fatalf("query %s: %d results after restore, want %d", q.Name, got, want)
		}
	}
	if got, want := sys.TotalResults(), ref.TotalResults(); got != want {
		t.Fatalf("total results %d, want %d", got, want)
	}
}

// Kill-then-recover at the embedding API: RecoverShard absorbs the dead
// worker and the run finishes exactly.
func TestKillThenRecoverSharded(t *testing.T) {
	defer faultpoint.Reset()
	catalog, qs, events := churnWorkload(t, "w2", 30, 4200, 9)
	ref := rumor.New()
	declareAll(t, ref, catalog)
	for _, q := range qs {
		if err := ref.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := ref.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}

	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 4, BatchSize: 64})
	defer sys.Close()
	declareAll(t, sys, catalog)
	for _, q := range qs {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	v0 := sys.RoutingVersion()
	faultpoint.Arm("shard.flush.replay", 10)
	recovered := 0
	for _, ev := range events {
		for {
			err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...)
			if err == nil {
				break
			}
			if !errors.Is(err, rumor.ErrShardDead) {
				t.Fatal(err)
			}
			st, rerr := sys.RecoverShard()
			if rerr != nil {
				t.Fatal(rerr)
			}
			if st.Shards != 3 || st.Version <= v0 {
				t.Fatalf("recover stats %+v", st)
			}
			recovered++
		}
	}
	for {
		err := sys.Drain()
		if err == nil {
			break
		}
		if !errors.Is(err, rumor.ErrShardDead) {
			t.Fatal(err)
		}
		if _, rerr := sys.RecoverShard(); rerr != nil {
			t.Fatal(rerr)
		}
		recovered++
	}
	if recovered != 1 {
		t.Fatalf("%d recoveries, want 1", recovered)
	}
	if sys.NumShards() != 3 {
		t.Fatalf("%d shards after recovery, want 3", sys.NumShards())
	}
	for _, q := range qs {
		if got, want := sys.ResultCount(q.Name), ref.ResultCount(q.Name); got != want {
			t.Fatalf("query %s: %d results, want %d", q.Name, got, want)
		}
	}
}

// The churn log replays a restored system to the same live query set; the
// replayed system then computes the same results.
func TestChurnLogReplay(t *testing.T) {
	eachRuntime(t, func(t *testing.T, k runtimeKind) {
		catalog, qs, events := churnWorkload(t, "w2", 30, 6000, 15)
		sys := k.new(t)
		declareAll(t, sys, catalog)
		for _, q := range qs[:10] {
			if err := sys.AddQuery(q.Name, q.Root); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := sys.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		sys.SetChurnLog(&log)
		// Churn after the snapshot: adds and removes that only the log records.
		for i, q := range qs[10:20] {
			if err := sys.AddQueryLive(fmt.Sprintf("post_%d", i), q.Root); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := sys.RemoveQuery(fmt.Sprintf("post_%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.RemoveQuery(qs[0].Name); err != nil {
			t.Fatal(err)
		}

		res := k.restore(t, snap.Bytes())
		if err := rumor.ReplayChurnLog(res, bytes.NewReader(log.Bytes())); err != nil {
			t.Fatal(err)
		}
		if got, want := res.PlanInfo(), sys.PlanInfo(); got.Queries != want.Queries {
			t.Fatalf("replayed system has %d queries, original %d", got.Queries, want.Queries)
		}
		for _, ev := range events {
			if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
			if err := res.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		k.settle(t, sys)
		k.settle(t, res)
		var total int64
		for _, q := range qs[1:10] {
			got, want := res.ResultCount(q.Name), sys.ResultCount(q.Name)
			if got != want {
				t.Fatalf("query %s: replayed %d, original %d", q.Name, got, want)
			}
			total += got
		}
		for i := 4; i < 10; i++ {
			name := fmt.Sprintf("post_%d", i)
			if got, want := res.ResultCount(name), sys.ResultCount(name); got != want {
				t.Fatalf("query %s: replayed %d, original %d", name, got, want)
			}
		}
		if total == 0 {
			t.Fatal("no results; replay equivalence vacuous")
		}
	})
}

// A churn log replayed onto a checkpoint of another plan fails at its
// first record, naming it: the checkpoint's plan has the same query names
// (no add collides) plus one more base query, so the first replayed add
// leaves a plan whose fingerprint is not the one the log recorded.
func TestChurnLogReplayRejectsOtherPlan(t *testing.T) {
	catalog, qs, _ := churnWorkload(t, "w2", 30, 0, 15)
	build := func(base []*core.Query) *rumor.System {
		sys := rumor.New()
		declareAll(t, sys, catalog)
		for _, q := range base {
			if err := sys.AddQuery(q.Name, q.Root); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Optimize(rumor.Options{Channels: true}); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := build(qs[:10])
	var log bytes.Buffer
	sys.SetChurnLog(&log)
	for i, q := range qs[10:14] {
		if err := sys.AddQueryLive(fmt.Sprintf("post_%d", i), q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.RemoveQuery("post_0"); err != nil {
		t.Fatal(err)
	}

	other := build(append(qs[:10:10], qs[20]))
	var snap bytes.Buffer
	if err := other.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	res, err := rumor.Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	err = rumor.ReplayChurnLog(res, bytes.NewReader(log.Bytes()))
	if err == nil || !strings.Contains(err.Error(), `churn record 0 ("post_0")`) {
		t.Fatalf("replay onto another plan: %v, want a fingerprint mismatch at record 0", err)
	}
}

// An injected checkpoint-write fault surfaces as an error and leaves the
// system fully usable; the retry succeeds.
func TestCheckpointWriteFault(t *testing.T) {
	defer faultpoint.Reset()
	catalog, qs, events := churnWorkload(t, "w1", 20, 1500, 3)
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 64})
	defer sys.Close()
	declareAll(t, sys, catalog)
	for _, q := range qs {
		if err := sys.AddQuery(q.Name, q.Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Optimize(rumor.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	faultpoint.Arm("checkpoint.write", 1)
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err == nil {
		t.Fatal("injected checkpoint fault did not surface")
	}
	buf.Reset()
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	res, err := rumor.RestoreSharded(bytes.NewReader(buf.Bytes()), rumor.ShardConfig{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if got, want := res.TotalResults(), sys.TotalResults(); got != want {
		t.Fatalf("restored TotalResults %d != %d", got, want)
	}
}

// An injected delta-apply fault fails AddQueryLive before any engine
// mutation: the old query set keeps running exactly.
func TestDeltaApplyFaultLeavesEngineUsable(t *testing.T) {
	defer faultpoint.Reset()
	catalog, qs, events := churnWorkload(t, "w2", 20, 3000, 3)
	sys := rumor.NewSharded(rumor.ShardConfig{Shards: 2, BatchSize: 64})
	defer sys.Close()
	ref := rumor.New()
	for _, s := range []churnSys{sys, ref} {
		declareAll(t, s, catalog)
		for _, q := range qs[:10] {
			if err := s.AddQuery(q.Name, q.Root); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Optimize(rumor.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	mid := len(events) / 2
	for _, ev := range events[:mid] {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	faultpoint.Arm("shard.delta.apply", 1)
	if err := sys.AddQueryLive("doomed", qs[10].Root); err == nil {
		t.Fatal("injected delta-apply fault did not surface")
	}
	if err := sys.RemoveQuery("doomed"); err == nil {
		t.Fatal("failed add left the query registered")
	}
	for _, ev := range events[mid:] {
		if err := sys.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := ref.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range qs[:10] {
		if got, want := sys.ResultCount(q.Name), ref.ResultCount(q.Name); got != want {
			t.Fatalf("query %s: %d results after failed delta, want %d", q.Name, got, want)
		}
	}
}

// withRetiredField3 rewrites a framed checkpoint into the bytes a version
// that still wrote field 3 (a channel stream threshold) made of the same
// system: field 3, value 3, between fields 1–2 and the rest.
func withRetiredField3(t *testing.T, raw []byte, shards int, channels bool) []byte {
	t.Helper()
	r := wire.NewReader(raw[len(wire.Magic):])
	if ver, err := r.Uvarint(); err != nil || ver != wire.FormatVersion {
		t.Fatalf("checkpoint version %d, %v", ver, err)
	}
	body, err := r.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var ch int64
	if channels {
		ch = 1
	}
	var head, old wire.Buffer
	head.PutVarintField(1, int64(shards))
	head.PutVarintField(2, ch)
	if !bytes.HasPrefix(body, head.Bytes()) {
		t.Fatalf("checkpoint body does not open with fields 1 and 2: % x", body[:min(len(body), 8)])
	}
	var parent wire.Buffer
	parent.Append(head.Bytes())
	parent.PutVarintField(3, 3)
	parent.Append(body[head.Len():])
	old.Append([]byte(wire.Magic))
	old.PutUvarint(wire.FormatVersion)
	old.PutUvarint(uint64(parent.Len()))
	old.Append(parent.Bytes())
	return old.Bytes()
}

// A checkpoint written with the retired field 3 restores, through
// RestoreSharded, to the system its bytes without the field restore to:
// the same plan, routes and counts, and the same results and plan after
// more pushes and a live add.
func TestRestoreSkipsRetiredField3(t *testing.T) {
	const shards = 2
	sys := buildShardedPerf(t, shards)
	defer sys.Close()
	push := func(s *rumor.ShardedSystem, from, to int64) {
		t.Helper()
		for ts := from; ts < to; ts++ {
			if err := s.Push("CPU", ts, ts%16, (ts*7)%101); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	push(sys, 0, 300)
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := make([]*rumor.ShardedSystem, 2)
	for i, raw := range [][]byte{buf.Bytes(), withRetiredField3(t, buf.Bytes(), shards, true)} {
		s, err := rumor.RestoreSharded(bytes.NewReader(raw), rumor.ShardConfig{BatchSize: 8})
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		defer s.Close()
		push(s, 300, 600)
		if err := s.AddQueryLive("cool", core.SelectL(expr.ConstCmp{Attr: 1, Op: expr.Lt, C: 10}, core.Scan("CPU"))); err != nil {
			t.Fatal(err)
		}
		push(s, 600, 900)
		restored[i] = s
	}
	cur, old := restored[0], restored[1]
	if got, want := old.PlanInfo(), cur.PlanInfo(); got != want {
		t.Fatalf("plan with field 3 %+v, without %+v", got, want)
	}
	if got, want := old.PartitionInfo(), cur.PartitionInfo(); got != want {
		t.Fatalf("routes with field 3 %q, without %q", got, want)
	}
	for _, q := range []string{"hot", "warm", "cool"} {
		if got, want := old.ResultCount(q), cur.ResultCount(q); got != want || want == 0 {
			t.Fatalf("query %s: %d results with field 3, %d without", q, got, want)
		}
	}
}
