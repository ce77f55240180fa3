package document

import "sort"

// Cursor streams one begin-sorted posting list. It is the query layer's
// view of an index: implementations back it with whatever physical layout
// they use (a contiguous slice here, immutable chunks in internal/index),
// and the structural joins consume postings one at a time instead of
// demanding a contiguous slice.
//
// A cursor is forward-only and single-use: Next yields the next posting
// in begin order, Seek advances to the first posting whose Label.Begin is
// >= begin (never retreating — seeking behind the current position is a
// plain Next) and yields it. Both report ok=false once the list is
// exhausted. Cursors are not safe for concurrent use; obtain one per
// traversal. The underlying postings are shared and read-only.
type Cursor interface {
	Next() (Entry, bool)
	Seek(begin uint64) (Entry, bool)
}

// OpenSeeker is an optional Cursor extension for interval streams: a
// SeekOpen(begin) advances to the first remaining entry whose interval
// may still be open at begin — every skipped entry provably satisfies
// Label.End < begin (and hence Label.Begin < begin, since Begin < End).
// Entries with Begin >= begin are never skipped, so a SeekOpen is a
// strictly weaker skip than Seek: it jumps over intervals that closed
// before the target while retaining ancestors that straddle it.
//
// The structural join uses this on its context side after a far
// candidate jump (the zig-zag step): context entries closed before the
// candidate can never be its ancestors, nor ancestors of any later
// candidate, so whole chunks of them are skipped by fence comparison
// (the chunked index keeps a maxEnd per fence for exactly this test).
// Like Seek, SeekOpen is forward-only and consumes what it yields.
type OpenSeeker interface {
	Cursor
	SeekOpen(begin uint64) (Entry, bool)
}

// ChunkFilter is an optional Cursor extension for predicate pushdown: a
// consumer that will drop every entry lacking one of the required
// attribute keys (hashes from AttrKeyHash/AttrKVHash, conjunctive)
// declares them up front, and a chunk-aware cursor may then skip any
// chunk whose attribute key set (AttrKeySet) lacks a required key — the
// entries are never decoded. The filtered stream is a superset of the
// entries passing the predicates (a chunk may hold the required keys on
// different entries, or admit one by hash collision, but never drops a
// carrier), so the consumer must still test each entry; it is NOT a
// complete stream of the tag, which is why the filter is opt-in per
// cursor rather than part of the Seek contract.
type ChunkFilter interface {
	Cursor
	FilterChunks(required []uint64)
}

// SliceCursor adapts a begin-sorted []Entry to the Cursor interface —
// the one-shot TagIndex snapshot and any materialized intermediate result
// stream through it.
type SliceCursor struct {
	es []Entry
	i  int
}

// NewSliceCursor wraps a begin-sorted entry slice. The slice is shared,
// not copied, and must not be mutated while the cursor lives.
func NewSliceCursor(es []Entry) *SliceCursor { return &SliceCursor{es: es} }

// Next implements Cursor.
func (c *SliceCursor) Next() (Entry, bool) {
	if c.i >= len(c.es) {
		return Entry{}, false
	}
	e := c.es[c.i]
	c.i++
	return e, true
}

// Seek implements Cursor by binary search over the remaining entries.
func (c *SliceCursor) Seek(begin uint64) (Entry, bool) {
	rest := c.es[c.i:]
	c.i += sort.Search(len(rest), func(i int) bool { return rest[i].Label.Begin >= begin })
	return c.Next()
}

// Cursor returns a streaming view of the begin-sorted posting list for a
// tag ("*" flattens every element). This makes a plain TagIndex satisfy
// the query layer's cursor-based index interface; internal/index provides
// the incremental chunked variant whose Seek skips whole chunks.
func (ix TagIndex) Cursor(tag string) Cursor { return NewSliceCursor(ix.Postings(tag)) }

// DrainCursor materializes the rest of a cursor into a slice.
func DrainCursor(c Cursor) []Entry {
	var out []Entry
	for e, ok := c.Next(); ok; e, ok = c.Next() {
		out = append(out, e)
	}
	return out
}
