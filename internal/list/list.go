// Package list implements the sorted-list database model of
// "Best Position Algorithms for Top-k Queries" (Akbarinia, Pacitti,
// Valduriez; VLDB 2007), Section 2.
//
// A database is a set of m lists over the same universe of n data items.
// Every item appears exactly once in every list with a local score, and
// each list is sorted in descending order of local score. Positions are
// 1-based: the position of an item is one plus the number of items that
// precede it in the list.
package list

import (
	"fmt"
	"math"
	"sort"
)

// ItemID identifies a data item. Items of an n-item database are the dense
// range [0, n). Callers with arbitrary keys (URLs, document names, ...)
// should map them to dense IDs; the public topk package provides a
// dictionary for that.
type ItemID int32

// Entry is one (data item, local score) pair of a sorted list.
type Entry struct {
	Item  ItemID
	Score float64
}

// Reader is the read surface a sorted list must offer the algorithms:
// sequential access by 1-based position, and random access by item. It is
// the storage seam of the tree — *List is the memory-resident
// implementation, and internal/store/stripe serves the same four methods
// from disk-backed columnar stripes — so every algorithm, probe and owner
// runs unchanged whatever medium holds the list. Implementations must be
// safe for concurrent readers and must panic on out-of-range positions
// and items, exactly like *List: algorithms control their accesses, so a
// bad position is a programming error, not an input error.
type Reader interface {
	// Len returns n, the number of entries.
	Len() int
	// At returns the entry at 1-based position p.
	At(p int) Entry
	// PositionOf returns the 1-based position of item d.
	PositionOf(d ItemID) int
	// ScoreOf returns the local score of item d.
	ScoreOf(d ItemID) float64
}

// List is a single sorted list: n entries in non-increasing score order,
// plus a positional index so that random access (lookup of a given item's
// score and position) is O(1).
//
// The zero value is not usable; construct lists with New or FromScores.
type List struct {
	entries []Entry
	pos     []int32 // pos[item] = 1-based position of item in entries
}

// Adopt builds a list taking ownership of entries — no defensive copy.
// The caller must not touch the slice afterwards. This exists for bulk
// loaders (internal/store) where the copy New makes would transiently
// double the memory of a large list mid-load.
func Adopt(entries []Entry) (*List, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("list: empty list")
	}
	l := &List{entries: entries}
	if err := l.buildIndex(); err != nil {
		return nil, err
	}
	return l, nil
}

// New builds a list from entries that must already satisfy the model
// invariants: scores non-increasing, and items forming a permutation of
// [0, len(entries)). The slice is copied.
func New(entries []Entry) (*List, error) {
	n := len(entries)
	if n == 0 {
		return nil, fmt.Errorf("list: empty list")
	}
	cp := make([]Entry, n)
	copy(cp, entries)
	l := &List{entries: cp}
	if err := l.buildIndex(); err != nil {
		return nil, err
	}
	return l, nil
}

// FromScores builds a list for items 0..len(scores)-1 where item i has
// local score scores[i]. The list is sorted by descending score; ties are
// broken by ascending item ID so construction is deterministic.
func FromScores(scores []float64) (*List, error) {
	n := len(scores)
	if n == 0 {
		return nil, fmt.Errorf("list: no scores")
	}
	entries := make([]Entry, n)
	for i, s := range scores {
		if math.IsNaN(s) {
			return nil, fmt.Errorf("list: score of item %d is NaN", i)
		}
		entries[i] = Entry{Item: ItemID(i), Score: s}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Score != entries[b].Score {
			return entries[a].Score > entries[b].Score
		}
		return entries[a].Item < entries[b].Item
	})
	l := &List{entries: entries}
	if err := l.buildIndex(); err != nil {
		return nil, err
	}
	return l, nil
}

// buildIndex validates the invariants and fills the positional index.
func (l *List) buildIndex() error {
	n := len(l.entries)
	l.pos = make([]int32, n)
	for i := range l.pos {
		l.pos[i] = -1
	}
	var prev float64
	for i, e := range l.entries {
		if math.IsNaN(e.Score) {
			return fmt.Errorf("list: NaN score at position %d", i+1)
		}
		if i > 0 && e.Score > prev {
			return fmt.Errorf("list: scores not sorted: position %d has %v > %v at position %d",
				i+1, e.Score, prev, i)
		}
		prev = e.Score
		if e.Item < 0 || int(e.Item) >= n {
			return fmt.Errorf("list: item %d out of range [0,%d)", e.Item, n)
		}
		if l.pos[e.Item] != -1 {
			return fmt.Errorf("list: item %d appears more than once", e.Item)
		}
		l.pos[e.Item] = int32(i + 1)
	}
	return nil
}

var _ Reader = (*List)(nil)

// Len returns n, the number of entries.
func (l *List) Len() int { return len(l.entries) }

// At returns the entry at 1-based position p. It panics if p is out of
// range; algorithms control their probe positions, so an out-of-range
// access is a programming error, not an input error.
func (l *List) At(p int) Entry {
	if p < 1 || p > len(l.entries) {
		panic(fmt.Sprintf("list: position %d out of range [1,%d]", p, len(l.entries)))
	}
	return l.entries[p-1]
}

// AppendRange appends the entries at 1-based positions from..to
// (inclusive) to dst and returns the extended slice: the range form of
// At, one copy out of the entries. It panics unless
// 1 <= from <= to <= Len().
func (l *List) AppendRange(dst []Entry, from, to int) []Entry {
	if from < 1 || from > to || to > len(l.entries) {
		panic(fmt.Sprintf("list: range [%d,%d] out of range [1,%d]", from, to, len(l.entries)))
	}
	return append(dst, l.entries[from-1:to]...)
}

// PositionOf returns the 1-based position of item d.
func (l *List) PositionOf(d ItemID) int {
	if d < 0 || int(d) >= len(l.pos) {
		panic(fmt.Sprintf("list: item %d out of range [0,%d)", d, len(l.pos)))
	}
	return int(l.pos[d])
}

// ScoreOf returns the local score of item d.
func (l *List) ScoreOf(d ItemID) float64 {
	return l.entries[l.PositionOf(d)-1].Score
}

// SeekScore returns the first 1-based position whose score is strictly
// below t, or Len()+1 when every score is >= t: a binary search over the
// sorted entries, which lets a threshold scan size its output up front.
func (l *List) SeekScore(t float64) int {
	return 1 + sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Score < t })
}

// Entries returns a copy of the list contents in position order.
func (l *List) Entries() []Entry {
	cp := make([]Entry, len(l.entries))
	copy(cp, l.entries)
	return cp
}

// Validate re-checks all invariants. Lists built through New/FromScores
// always validate; this is exported for fuzz/property tests and for data
// loaded from disk.
func (l *List) Validate() error {
	tmp := &List{entries: l.entries}
	return tmp.buildIndex()
}
