// Package intern maps names to dense integer handles, so that state keyed
// by name can live in slices indexed by handle instead of string maps.
package intern

import (
	"hash/maphash"
	"slices"
)

// Table maps names to handles in first-seen order, starting at 1, so the
// zero handle names nothing. A name keeps its handle for the table's
// lifetime. A Table is not safe for concurrent use.
//
// The index is an open-addressed hash table of handles, so interning a new
// name hashes it once, where a map would hash it to look up and again to
// insert.
type Table[H ~int32] struct {
	seed maphash.Seed
	// index holds handles at their names' probe positions, zero for an
	// empty slot; its length is a power of two at most half full.
	index []H
	// names and hashes are by handle.
	names  []string
	hashes []uint64
}

// Reserve sizes the table for n more names, so interning a known set at
// once does not rehash as it goes.
func (t *Table[H]) Reserve(n int) {
	t.rehash(len(t.names) + n + 1)
	t.names = slices.Grow(t.names, n)
	t.hashes = slices.Grow(t.hashes, n)
}

// find returns the index slot holding name, or the empty slot where it
// belongs.
func (t *Table[H]) find(name string, hash uint64) int {
	mask := len(t.index) - 1
	for i := int(hash) & mask; ; i = (i + 1) & mask {
		h := t.index[i]
		if h == 0 || (t.hashes[h] == hash && t.names[h] == name) {
			return i
		}
	}
}

// rehash sizes the index for n names, the zero handle's included.
func (t *Table[H]) rehash(n int) {
	if len(t.names) == 0 {
		t.seed = maphash.MakeSeed()
		t.names, t.hashes = append(t.names, ""), append(t.hashes, 0)
	}
	size := 8
	for size < 2*n {
		size *= 2
	}
	if size <= len(t.index) {
		return
	}
	t.index = make([]H, size)
	for h := 1; h < len(t.names); h++ {
		t.index[t.find(t.names[h], t.hashes[h])] = H(h)
	}
}

// Intern returns the name's handle, assigning the next one on first sight.
func (t *Table[H]) Intern(name string) H {
	if 2*(len(t.names)+1) > len(t.index) {
		t.rehash(len(t.names) + 1)
	}
	hash := maphash.String(t.seed, name)
	i := t.find(name, hash)
	if h := t.index[i]; h != 0 {
		return h
	}
	h := H(len(t.names))
	t.names = append(t.names, name)
	t.hashes = append(t.hashes, hash)
	t.index[i] = h
	return h
}

// Lookup returns the name's handle without assigning one.
func (t *Table[H]) Lookup(name string) (H, bool) {
	if len(t.index) == 0 {
		return 0, false
	}
	h := t.index[t.find(name, maphash.String(t.seed, name))]
	return h, h != 0
}

// Len returns one past the highest handle assigned: a handle-indexed
// slice of that length holds every handle assigned so far.
func (t *Table[H]) Len() int { return len(t.names) }

// Name returns the name interned as h; "" for the zero handle or one never
// assigned.
func (t *Table[H]) Name(h H) string {
	if h <= 0 || int(h) >= len(t.names) {
		return ""
	}
	return t.names[h]
}

// Grow returns s extended with zero values so that index h is valid: the
// one way handle-indexed slices grow as handles are assigned. Capacity
// grows as append's does, so growth is amortized O(1) per handle.
func Grow[T any, H ~int32](s []T, h H) []T {
	n := int(h) + 1
	if n <= len(s) {
		return s
	}
	old := len(s)
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}
