package transport

// Deterministic network fault injection lives in internal/faultpoint
// (the process-crash and network fault layers share one package and one
// philosophy: named deterministic triggers, zero cost when unarmed).
// The cluster protocol writes every frame with a single Write call, so a
// fault addressed by (link name, write index) maps one-to-one onto a
// protocol frame; the counter lives in the set, not the conn, so "drop
// the 7th frame ever sent coordinator→shard1" stays meaningful after a
// sever and redial. These aliases keep the transport-level names used
// throughout the tests.
import "repro/internal/faultpoint"

// FaultAction is what happens to the selected write.
//
//rumor:allow deadexport test instrument: transport fault sets
type FaultAction = faultpoint.NetAction

//rumor:allow deadexport test instrument: transport fault sets
const (
	// FaultDrop swallows the write: the caller sees success, the peer sees
	// nothing. Models a lost frame.
	FaultDrop = faultpoint.NetDrop
	// FaultDup writes the frame twice. Models a retransmit-duplicated
	// frame.
	FaultDup = faultpoint.NetDup
	// FaultDelay sleeps before writing. Models a slow link; with a delay
	// past the caller's deadline it models an ack that arrives after the
	// retry fired.
	FaultDelay = faultpoint.NetDelay
	// FaultSever closes the connection instead of writing. Models a
	// partition starting at a precise frame boundary; the link heals on
	// the next dial unless the dialer is also gated.
	FaultSever = faultpoint.NetSever
)

// FaultRule selects one write on one link.
//
//rumor:allow deadexport test instrument: transport fault sets
type FaultRule = faultpoint.NetRule

// FaultSet holds the armed rules and the per-link write counters.
type FaultSet = faultpoint.NetFaultSet

// NewFaultSet returns an empty set (all traffic passes through).
//
//rumor:allow deadexport test instrument: transport fault sets
func NewFaultSet() *FaultSet { return faultpoint.NewNetFaultSet() }
