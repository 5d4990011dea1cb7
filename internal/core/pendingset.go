package core

import (
	"repro/internal/tag"
)

// pendingEntry is one pre-written-but-not-yet-written value.
type pendingEntry struct {
	tag   tag.Tag
	value []byte
}

// pendingSet is the paper's pending_write_set as a small slice sorted
// ascending by tag. The protocol's access pattern makes a sorted slice
// strictly better than the map pair it replaces: tags arrive almost
// always in increasing order (add is an append), removal is almost
// always a prefix (prune compacts with one copy), and the read barrier
// needs only the maximum (the last element, O(1) instead of a full map
// scan per read admission). Steady state allocates nothing: the backing
// array survives prunes and is reused by later adds.
//
// The zero value is an empty set, ready to use.
type pendingSet struct {
	entries []pendingEntry
}

// size returns the number of pending entries.
func (p *pendingSet) size() int { return len(p.entries) }

// max returns the highest pending tag, or the zero tag when empty
// (paper: max_lex(pending_write_set)) — O(1), the slice is sorted.
func (p *pendingSet) max() tag.Tag {
	if n := len(p.entries); n > 0 {
		return p.entries[n-1].tag
	}
	return tag.Tag{}
}

// search returns the index of the first entry with tag >= t (== len when
// every entry is smaller). Hand-rolled binary search so the hot path
// stays free of closures.
func (p *pendingSet) search(t tag.Tag) int {
	lo, hi := 0, len(p.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.entries[mid].tag.Less(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// get returns the value pending under t.
func (p *pendingSet) get(t tag.Tag) ([]byte, bool) {
	if i := p.search(t); i < len(p.entries) && p.entries[i].tag == t {
		return p.entries[i].value, true
	}
	return nil, false
}

// add inserts (t, v) keeping the slice sorted and reports
// whether the entry was inserted: the first copy of a tag wins, a
// duplicate is refused (the caller owns the consequence — typically the
// duplicate's bytes fall to the GC). The common case — a tag above
// everything pending — is a plain append.
func (p *pendingSet) add(t tag.Tag, v []byte) bool {
	n := len(p.entries)
	if n == 0 || p.entries[n-1].tag.Less(t) {
		p.entries = append(p.entries, pendingEntry{tag: t, value: v})
		return true
	}
	i := p.search(t)
	if i < n && p.entries[i].tag == t {
		return false
	}
	p.entries = append(p.entries, pendingEntry{})
	copy(p.entries[i+1:], p.entries[i:])
	p.entries[i] = pendingEntry{tag: t, value: v}
	return true
}

// drop removes the entry for t (if present).
func (p *pendingSet) drop(t tag.Tag) {
	i := p.search(t)
	if i >= len(p.entries) || p.entries[i].tag != t {
		return
	}
	copy(p.entries[i:], p.entries[i+1:])
	last := len(p.entries) - 1
	p.entries[last] = pendingEntry{} // release the value reference
	p.entries = p.entries[:last]
}

// prefixLen returns how many leading entries have tag <= t.
func (p *pendingSet) prefixLen(t tag.Tag) int {
	i := p.search(t)
	if i < len(p.entries) && p.entries[i].tag == t {
		i++
	}
	return i
}

// dropPrefix removes the first n entries, compacting in place. Vacated
// slots are zeroed so pruned values do not linger past the slice length
// and leak through the backing array.
func (p *pendingSet) dropPrefix(n int) {
	if n <= 0 {
		return
	}
	m := copy(p.entries, p.entries[n:])
	for i := m; i < len(p.entries); i++ {
		p.entries[i] = pendingEntry{}
	}
	p.entries = p.entries[:m]
}
