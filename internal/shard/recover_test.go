package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/workload"
)

// Deterministic kill-one-shard torture: for every enumerated fault point ×
// workload × shard count, a worker is killed at an exact, reproducible
// batch boundary (the n-th arrival at a named fault point), recovered via
// RecoverShard, and the run must finish with results exactly equal to an
// unfaulted single-engine run. The push loop mirrors a real embedder:
// a Push/Drain that fails with ErrShardDead is retried after recovery —
// rejected pushes were never ingested, accepted ones are WAL-durable.

func tortureWorkload(t *testing.T, wl string) (map[string]core.SourceDecl, []*core.Query, []workload.Event) {
	t.Helper()
	p := workload.DefaultParams()
	p.Seed = 7
	p.ConstDomain = 50
	p.WindowDomain = 200
	switch wl {
	case "w1":
		p.NumQueries = 120
		qs, err := workload.ToRUMOR(p.Workload1())
		if err != nil {
			t.Fatal(err)
		}
		return p.Catalog(), qs, p.GenStreams(3500)
	case "w2":
		p.NumQueries = 80
		qs, err := workload.ToRUMOR(p.Workload2Seq())
		if err != nil {
			t.Fatal(err)
		}
		return p.Catalog(), qs, p.GenStreams(3000)
	case "w3":
		const k = 5
		return p.Workload3Catalog(k), p.Workload3(k), p.Workload3Rounds(k, 500)
	}
	t.Fatalf("unknown workload %s", wl)
	return nil, nil, nil
}

func runTorture(t *testing.T, wl string, shards int, fp string, hit int) {
	t.Helper()
	defer faultpoint.Reset()
	catalog, qs, events := tortureWorkload(t, wl)
	ref, sh := buildPair(t, catalog, qs, false, shards)
	defer sh.Close()
	for _, ev := range events {
		if err := ref.Push(ev.Source, ev.Tuple); err != nil {
			t.Fatal(err)
		}
	}

	v0 := sh.PartitionPlan().RoutingVersion()
	faultpoint.Arm(fp, hit)
	recovered := 0
	var firstRec RecoverStats
	recover := func() {
		st, err := sh.RecoverShard()
		if err != nil {
			t.Fatalf("RecoverShard: %v", err)
		}
		if recovered == 0 {
			firstRec = st
		}
		recovered++
	}
	push := func(ev workload.Event) {
		for {
			err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals)
			if err == nil {
				return
			}
			if !errors.Is(err, ErrShardDead) {
				t.Fatal(err)
			}
			recover()
		}
	}
	drain := func() {
		for {
			err := sh.Drain()
			if err == nil {
				return
			}
			if !errors.Is(err, ErrShardDead) {
				t.Fatal(err)
			}
			recover()
		}
	}

	// A mid-stream drain both surfaces pending deaths and feeds the
	// drain-path fault point; the suffix then runs over the survivors.
	mid := len(events) * 3 / 5
	for _, ev := range events[:mid] {
		push(ev)
	}
	drain()
	for _, ev := range events[mid:] {
		push(ev)
	}
	drain()

	if got := faultpoint.Hits(fp); got < hit {
		t.Fatalf("fault %s fired %d times, wanted the kill at hit %d — workload too small", fp, got, hit)
	}
	if recovered != 1 {
		t.Fatalf("%d recoveries, want exactly 1", recovered)
	}
	if got, want := sh.NumShards(), shards-1; got != want {
		t.Fatalf("%d shards after recovery, want %d", got, want)
	}
	if v1 := sh.PartitionPlan().RoutingVersion(); v1 <= v0 {
		t.Fatalf("routing version %d after recovery, want > %d", v1, v0)
	}
	if fp == "shard.flush.replay" && firstRec.Replayed == 0 {
		t.Fatal("kill-before-replay left no WAL entries to replay")
	}
	if ref.TotalResults() == 0 {
		t.Fatal("workload produced no results; equivalence is vacuous")
	}
	for _, q := range qs {
		if got, want := sh.ResultCount(q.ID), ref.ResultCount(q.ID); got != want {
			t.Fatalf("query %s: %d results after recovery, want %d (fault %s hit %d)",
				q.Name, got, want, fp, hit)
		}
	}
	if got, want := sh.TotalResults(), ref.TotalResults(); got != want {
		t.Fatalf("total results %d, want %d", got, want)
	}
}

func TestRecoverTorture(t *testing.T) {
	for _, wl := range []string{"w1", "w2", "w3"} {
		for _, shards := range []int{2, 4} {
			cases := []struct {
				fp  string
				hit int
			}{
				{"shard.flush.replay", 3},   // early kill: most of the run happens post-recovery
				{"shard.flush.replay", 25},  // late kill: recovery migrates a full window
				{"shard.drain.ack", 1},      // kill on the drain path, first worker
				{"shard.drain.ack", shards}, // kill on the drain path, last worker
			}
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s/shards=%d/%s/hit=%d", wl, shards, c.fp, c.hit), func(t *testing.T) {
					runTorture(t, wl, shards, c.fp, c.hit)
				})
			}
		}
	}
}

// A 1-shard engine runs inline: it has no worker that can die, so a
// replay fault point never fires and RecoverShard has nothing to recover;
// it must refuse.
func TestRecoverOnlyShardRefused(t *testing.T) {
	defer faultpoint.Reset()
	catalog, qs, events := tortureWorkload(t, "w2")
	_, sh := buildPair(t, catalog, qs, false, 1)
	defer sh.Close()
	faultpoint.Arm("shard.flush.replay", 2)
	for _, ev := range events {
		if err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.RecoverShard(); err == nil {
		t.Fatal("recovering the only shard succeeded")
	}
}

func TestRecoverNoDeadWorker(t *testing.T) {
	catalog, qs, _ := tortureWorkload(t, "w2")
	_, sh := buildPair(t, catalog, qs, false, 2)
	defer sh.Close()
	if _, err := sh.RecoverShard(); err == nil {
		t.Fatal("RecoverShard succeeded with every worker alive")
	}
}

// Satellite (b): a failed export/import mid-rebalance must roll the state
// migration back to a usable engine — same results as if the rebalance
// had never been attempted — and surface ErrPartialMigration.
func TestRebalanceRollbackOnInjectedFault(t *testing.T) {
	for _, fp := range []string{"shard.rebalance.export", "shard.rebalance.import"} {
		t.Run(fp, func(t *testing.T) {
			defer faultpoint.Reset()
			p := workload.DefaultParams()
			p.Seed = 11
			p.NumQueries = 80
			p.ConstDomain = 50
			p.WindowDomain = 200
			qs, err := workload.ToRUMOR(p.Workload2Seq())
			if err != nil {
				t.Fatal(err)
			}
			events := p.GenStreamsSkewed(3000)
			ref, sh := buildPair(t, p.Catalog(), qs, false, 2)
			defer sh.Close()
			for _, ev := range events {
				if err := ref.Push(ev.Source, ev.Tuple); err != nil {
					t.Fatal(err)
				}
			}
			mid := len(events) / 2
			for _, ev := range events[:mid] {
				if err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals); err != nil {
					t.Fatal(err)
				}
			}
			if err := sh.Drain(); err != nil {
				t.Fatal(err)
			}
			faultpoint.Arm(fp, 1)
			_, rerr := sh.Rebalance(nil)
			if faultpoint.Hits(fp) == 0 {
				t.Skipf("rebalance found no state to move; fault point %s never reached", fp)
			}
			if !errors.Is(rerr, ErrPartialMigration) {
				t.Fatalf("Rebalance error = %v, want ErrPartialMigration", rerr)
			}
			// The engine must be fully usable: the rest of the stream runs
			// to the exact unfaulted counts.
			for _, ev := range events[mid:] {
				if err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals); err != nil {
					t.Fatal(err)
				}
			}
			if err := sh.Drain(); err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				if got, want := sh.ResultCount(q.ID), ref.ResultCount(q.ID); got != want {
					t.Fatalf("query %s: %d results after rolled-back rebalance, want %d", q.Name, got, want)
				}
			}
			// A clean rebalance must still work after the rollback.
			if _, err := sh.Rebalance(nil); err != nil {
				t.Fatalf("rebalance after rollback: %v", err)
			}
		})
	}
}

// Satellite (a): Close is idempotent and safe concurrently with pushes,
// drains, and rebalances (run under -race).
func TestCloseIdempotentConcurrent(t *testing.T) {
	p := workload.DefaultParams()
	p.Seed = 13
	p.NumQueries = 40
	p.ConstDomain = 50
	qs, err := workload.ToRUMOR(p.Workload2Seq())
	if err != nil {
		t.Fatal(err)
	}
	events := p.GenStreams(4000)
	_, sh := buildPair(t, p.Catalog(), qs, false, 4)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(events); i += 3 {
				ev := events[i]
				if err := sh.Push(ev.Source, ev.Tuple.TS, ev.Tuple.Vals); err != nil {
					return // engine closed mid-stream: expected
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := sh.Rebalance(nil); err != nil {
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = sh.Drain()
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.Close()
		}()
	}
	wg.Wait()
	sh.Close() // and once more after everything settled
}
