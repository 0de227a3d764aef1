package obs

import (
	"sync"
	"time"
)

// Lifecycle event kinds recorded in the trace ring. Structural events are
// rare (relative to tuple traffic), so the ring is always on — it does not
// consult the metrics enable flag.
const (
	EvDeltaApply   = "delta_apply"   // live plan delta spliced into a running engine
	EvCompaction   = "compaction"    // channel compaction remapped positions
	EvRebalance    = "rebalance"     // key-range moves planned + applied (detail: moves, dur: pause)
	EvCheckpoint   = "checkpoint"    // engine state serialized
	EvRestore      = "restore"       // engine rebuilt from a checkpoint
	EvWALReplay    = "wal_replay"    // staged WAL suffix replayed to a revived shard
	EvShardRecover = "shard_recover" // dead shard revived (replay + migration)
	EvLinkUp       = "link_up"       // cluster link (re)established
	EvLinkDown     = "link_down"     // cluster link lost, retrying
	EvDeadDeclare  = "dead_declare"  // shard declared dead after FailTimeout
	EvQueryAdd     = "query_add"     // AddQueryLive completed
	EvQueryRemove  = "query_remove"  // RemoveQuery completed
)

// Event is one recorded lifecycle event. Seq is a process-wide ordering
// (total events ever recorded, including ones the ring has since
// overwritten); TimeUnixNano is the wall clock at record time; DurNS is
// the duration of the operation, 0 for instantaneous transitions.
type Event struct {
	Seq          int64
	TimeUnixNano int64
	Kind         string
	Detail       string
	DurNS        int64
}

// Ring is a bounded, mutex-guarded lifecycle event buffer. Once full,
// each new event overwrites the oldest. A mutex (not lock-free tricks) is
// fine here: structural events happen at churn/recovery rate, not tuple
// rate.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	total int64 // events ever recorded; buf[total % len(buf)] is the next slot
}

// NewRing returns a ring holding the last n events (n is clamped to at
// least 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Record appends an event, overwriting the oldest once the ring is full.
func (r *Ring) Record(kind, detail string, dur time.Duration) {
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.total++
	r.buf[(r.total-1)%int64(len(r.buf))] = Event{
		Seq:          r.total,
		TimeUnixNano: now,
		Kind:         kind,
		Detail:       detail,
		DurNS:        dur.Nanoseconds(),
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.buf))
	if r.total < n {
		n = r.total
	}
	out := make([]Event, 0, n)
	start := r.total - n
	for i := int64(0); i < n; i++ {
		out = append(out, r.buf[(start+i)%int64(len(r.buf))])
	}
	return out
}

// Trace is the process-wide lifecycle ring all runtime layers record
// into. 512 events comfortably covers a recovery or rebalance episode.
var Trace = NewRing(512)

// RecordEvent records into the process-wide ring.
func RecordEvent(kind, detail string, dur time.Duration) {
	Trace.Record(kind, detail, dur)
}
