package analysis

import "testing"

// One analysistest-style suite per analyzer: each drives its analyzer over
// a testdata package of seeded violations and asserts the findings line up
// with the fixture's // want comments — no misses, no extras.

func TestPoolOwn(t *testing.T)     { runTestdata(t, PoolOwn, "poolown") }
func TestNoAlloc(t *testing.T)     { runTestdata(t, NoAlloc, "noalloc") }
func TestAtomicField(t *testing.T) { runTestdata(t, AtomicField, "atomicfield") }
func TestLockedCall(t *testing.T)  { runTestdata(t, LockedCall, "lockedcall") }
func TestWireCase(t *testing.T)    { runTestdata(t, WireCase, "wirecase") }
func TestErrClose(t *testing.T)    { runTestdata(t, ErrClose, "errclose") }

// Waivers and vet flags name analyzers, so each name is one analyzer's.
func TestByName(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("analyzer name %q is empty or taken twice", a.Name)
		}
		seen[a.Name] = true
	}
}
