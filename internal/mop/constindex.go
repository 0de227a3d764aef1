package mop

import "slices"

// constIndex is an equality-constant lookup table used by the predicate
// index ([10,16]) and the AN/FR indexes (§4.3): it maps an attribute
// constant to the groups registered under it. Lookups are the per-tuple
// hot path, so after construction the index is sealed: when the constants
// are small non-negative integers (the common case — benchmark constant
// domains are dense, §5.1) the map is converted to a direct-mapped dense
// array, turning every probe into a bounds check and a slice load. A
// sealed index takes adds and removes (live splicing); an add outside the
// dense array moves the index back to the map until the next seal.
type constIndex[T comparable] struct {
	dense [][]T
	m     map[int64][]T
}

// add registers v under constant c.
func (ci *constIndex[T]) add(c int64, v T) {
	if ci.dense != nil && c >= 0 && c < int64(len(ci.dense)) {
		ci.dense[c] = append(ci.dense[c], v)
		return
	}
	if ci.m == nil {
		ci.m = make(map[int64][]T)
	}
	for dc, vs := range ci.dense {
		if len(vs) > 0 {
			ci.m[int64(dc)] = vs
		}
	}
	ci.dense = nil
	ci.m[c] = append(ci.m[c], v)
}

// remove unregisters v from constant c.
func (ci *constIndex[T]) remove(c int64, v T) {
	vs := slices.DeleteFunc(ci.get(c), func(x T) bool { return x == v })
	switch {
	case ci.dense != nil:
		ci.dense[c] = vs
	case len(vs) == 0:
		delete(ci.m, c)
	default:
		ci.m[c] = vs
	}
}

// denseLimit bounds the direct-mapped table: constants must lie in
// [0, denseLimit) and the table may over-allocate at most sparseSlack
// slots per registered constant (so few, far-apart constants keep the map).
const (
	denseLimit  = 1 << 16
	sparseSlack = 16
)

// seal freezes the index for lookups, electing the dense representation
// when the registered constants allow it.
func (ci *constIndex[T]) seal() {
	if len(ci.m) == 0 {
		return
	}
	maxC := int64(-1)
	for c := range ci.m {
		if c < 0 || c >= denseLimit {
			return // keep the map
		}
		if c > maxC {
			maxC = c
		}
	}
	slots := maxC + 1
	if slots > int64(max(64, sparseSlack*len(ci.m))) {
		return // too sparse: a dense table would be mostly dead slots
	}
	dense := make([][]T, slots)
	for c, vs := range ci.m {
		dense[c] = vs
	}
	ci.dense = dense
	ci.m = nil
}

// forEach visits every registered value (introspection; not a hot path).
func (ci *constIndex[T]) forEach(fn func(v T)) {
	for _, vs := range ci.dense {
		for _, v := range vs {
			fn(v)
		}
	}
	for _, vs := range ci.m {
		for _, v := range vs {
			fn(v)
		}
	}
}

// get returns the groups registered under constant c (nil if none).
func (ci *constIndex[T]) get(c int64) []T {
	if ci.dense != nil {
		if c < 0 || c >= int64(len(ci.dense)) {
			return nil
		}
		return ci.dense[c]
	}
	return ci.m[c]
}
