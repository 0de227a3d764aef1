// Package faultpoint provides named, deterministic fault-injection trigger
// points for crash-recovery testing, modeled on GCC-style torture suites:
// the test enumerates every registered point and arms them one at a time,
// rather than killing workers at random.
//
// A production binary never enables the package, so every trigger site
// reduces to one atomic load of a package-global flag. Tests call Arm to
// make the n-th hit of a named point fire exactly once: Maybe panics with a
// Crash value (recognized by the shard worker's recover handler), Error
// returns a non-nil error for error-style failure paths. A point disarms
// itself after firing, so recovery code that re-executes the same site does
// not re-trigger the fault.
package faultpoint

import (
	"sync"
	"sync/atomic"
)

// Crash is the panic payload thrown by Maybe. Recovery handlers check for
// it to distinguish an injected fault from a genuine engine bug.
type Crash struct{ Name string }

func (c Crash) Error() string { return "faultpoint: injected crash at " + c.Name }

// ErrInjected wraps the point name for error-style faults returned by Error.
type ErrInjected struct{ Name string }

func (e ErrInjected) Error() string { return "faultpoint: injected error at " + e.Name }

// enabled is the fast-path gate: while false (the default), Maybe and Error
// are a single atomic load and return immediately.
var enabled atomic.Bool

var (
	mu     sync.Mutex
	armed  map[string]int // point name -> hits remaining before firing
	hits   map[string]int // point name -> total times the site was reached
	nameMu sync.Mutex
	names  map[string]bool // every point name ever reached (for enumeration)
)

// Arm schedules the named point to fire on its n-th hit (n >= 1) counted
// from this call. The point fires exactly once, then disarms itself.
//
//rumor:allow deadexport test instrument: arms and reads fault points
func Arm(name string, n int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	if armed == nil {
		armed = make(map[string]int)
		hits = make(map[string]int)
	}
	armed[name] = n
	mu.Unlock()
	enabled.Store(true)
}

// Reset disarms every point and clears hit counters, returning the package
// to its zero-cost disabled state. Tests call it between torture cases.
//
//rumor:allow deadexport test instrument: arms and reads fault points
func Reset() {
	mu.Lock()
	armed = nil
	hits = nil
	mu.Unlock()
	enabled.Store(false)
}

// Hits reports how many times the named point was reached since the last
// Reset while the package was enabled. Zero when disabled throughout.
//
//rumor:allow deadexport test instrument: arms and reads fault points
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	return hits[name]
}

// Names returns every point name reached at least once over the lifetime of
// the process (recorded even while disabled is off only if a test armed the
// package). Used by torture tests to verify their fault-point enumeration
// stays in sync with the code.
//
//rumor:allow deadexport test instrument: arms and reads fault points
func Names() []string {
	nameMu.Lock()
	defer nameMu.Unlock()
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	return out
}

// note records a hit and reports whether the point should fire now.
func note(name string) bool {
	nameMu.Lock()
	if names == nil {
		names = make(map[string]bool)
	}
	names[name] = true
	nameMu.Unlock()

	mu.Lock()
	defer mu.Unlock()
	if hits == nil {
		hits = make(map[string]int)
	}
	hits[name]++
	n, ok := armed[name]
	if !ok {
		return false
	}
	n--
	if n > 0 {
		armed[name] = n
		return false
	}
	delete(armed, name)
	return true
}

// Maybe panics with Crash{name} if the named point is armed and due. It is
// a no-op (one atomic load) unless a test has armed the package.
func Maybe(name string) {
	if !enabled.Load() {
		return
	}
	if note(name) {
		panic(Crash{Name: name})
	}
}

// Error returns ErrInjected{name} if the named point is armed and due, and
// nil otherwise. For failure paths that propagate errors instead of
// panicking (e.g. a failed state import during rebalancing).
func Error(name string) error {
	if !enabled.Load() {
		return nil
	}
	if note(name) {
		return ErrInjected{Name: name}
	}
	return nil
}
