package faultpoint

// Network fault layer: the wire analogue of Arm/Maybe. Where the named
// points above inject crashes at code sites, a NetFaultSet injects
// deterministic link faults at write sites: the n-th write on a named
// link is dropped, duplicated, delayed, or severed. Torture tests
// enumerate write indices the way crash-torture tests enumerate point
// hits — rather than flipping coins — so every failing schedule has a
// reproducible name ("link c2, write 17, sever").
//
// The per-link write counter is shared across reconnections (Wrap is
// called once per connection, the counter lives in the set), so a rule's
// write index addresses the link's lifetime, not one connection's.

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// NetAction is what happens to a matched write.
type NetAction uint8

const (
	// NetDrop swallows the write, pretending success: the peer never sees
	// the frame (a lost packet past the kernel buffer).
	NetDrop NetAction = iota
	// NetDup writes the frame twice (a retransmission the network
	// delivered both copies of).
	NetDup
	// NetDelay sleeps before writing (a stall, reordering the frame
	// against out-of-band observations but not within the stream).
	NetDelay
	// NetSever closes the connection and fails the write (a broken link;
	// the dialer must reconnect).
	NetSever
)

// String names the action.
func (a NetAction) String() string {
	switch a {
	case NetDrop:
		return "drop"
	case NetDup:
		return "dup"
	case NetDelay:
		return "delay"
	case NetSever:
		return "sever"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// NetRule fires Action on the Write-th write (0-based, counted per Link
// across reconnections) of the named link.
type NetRule struct {
	Link   string
	Write  int
	Action NetAction
	Delay  time.Duration // NetDelay only
}

// NetFaultSet is a deterministic set of link fault rules plus the
// per-link write counters they index. The zero value is not usable; call
// NewNetFaultSet.
type NetFaultSet struct {
	mu     sync.Mutex
	rules  []NetRule
	writes map[string]int
	fired  map[string]int
}

// NewNetFaultSet returns an empty fault set.
//
//rumor:allow deadexport test instrument: network fault sets
func NewNetFaultSet() *NetFaultSet {
	return &NetFaultSet{writes: make(map[string]int), fired: make(map[string]int)}
}

// Add arms one rule. Safe to call while connections are live.
//
//rumor:allow deadexport test instrument: network fault sets
func (s *NetFaultSet) Add(r NetRule) {
	s.mu.Lock()
	s.rules = append(s.rules, r)
	s.mu.Unlock()
}

// Hits reports how many rules have fired on the link.
//
//rumor:allow deadexport test instrument: network fault sets
func (s *NetFaultSet) Hits(link string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[link]
}

// Writes reports how many writes the link has seen.
//
//rumor:allow deadexport test instrument: network fault sets
func (s *NetFaultSet) Writes(link string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes[link]
}

// next advances the link's write counter and returns the rule matching
// this write, if any.
func (s *NetFaultSet) next(link string) (NetRule, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.writes[link]
	s.writes[link] = w + 1
	for _, r := range s.rules {
		if r.Link == link && r.Write == w {
			s.fired[link]++
			return r, true
		}
	}
	return NetRule{}, false
}

// Wrap interposes the fault set on a connection's writes under the given
// link name. A nil set returns c unchanged. Reads pass through untouched:
// every fault is modeled at the sender, which suffices for symmetric
// protocols (sever kills both directions anyway).
//
//rumor:allow deadexport test instrument: network fault sets
func (s *NetFaultSet) Wrap(link string, c net.Conn) net.Conn {
	if s == nil {
		return c
	}
	return &faultConn{Conn: c, set: s, link: link}
}

type faultConn struct {
	net.Conn
	set  *NetFaultSet
	link string
}

func (f *faultConn) Write(p []byte) (int, error) {
	r, ok := f.set.next(f.link)
	if !ok {
		return f.Conn.Write(p)
	}
	switch r.Action {
	case NetDrop:
		return len(p), nil
	case NetDup:
		if n, err := f.Conn.Write(p); err != nil {
			return n, err
		}
		return f.Conn.Write(p)
	case NetDelay:
		d := r.Delay
		if d == 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
		return f.Conn.Write(p)
	case NetSever:
		_ = f.Conn.Close()
		return 0, fmt.Errorf("faultpoint: link %s severed at write %d", f.link, r.Write)
	}
	return f.Conn.Write(p)
}
