package document

// This file is the k-way merge cursor, the repo's one merge. It serves
// two callers: the chunked index's "*" stream (one branch per tag — label
// order is document order, so every element in document order is the
// merge of the begin-sorted tag runs) and the forest's scatter-gather
// reads (one branch per shard's query pipeline). Each branch is an
// independent begin-sorted cursor; the merge is itself a begin-sorted
// cursor, so it composes with everything else that consumes cursors —
// Collect, range adapters, or another merge.
// Intermediate memory is one buffered head per branch, independent of how
// many entries any branch produces, and a Seek pushes down into every
// branch so cold regions are skipped with each branch's own fence
// machinery rather than pulled entry-by-entry through the heap.

// Merge returns a cursor yielding the union of the given begin-sorted
// cursors in global begin order. Branches are consumed lazily: one entry
// of lookahead per branch, pulled only as the merged stream advances.
// Entries with equal begins surface in branch order (earlier argument
// first), so the merged order is deterministic.
//
// The merged cursor honors the forward-only Cursor contract exactly when
// every branch does: Next yields the global minimum of the buffered
// heads, and Seek(begin) forwards the target to every branch whose
// buffered head is behind it — each branch skips with its own Seek
// (fence-directory jumps on the chunked index) — then yields as Next
// does. Seeking at or behind the current position degrades to Next,
// because every buffered head already sits at or past the last yielded
// entry. A ChunkFilter installed on the merged cursor forwards to every
// branch that takes one. Like its branches, the merged cursor is
// single-use and not safe for concurrent use.
func Merge(branches ...Cursor) Cursor {
	live := make([]Cursor, 0, len(branches))
	for _, b := range branches {
		if b != nil {
			live = append(live, b)
		}
	}
	switch len(live) {
	case 0:
		return NewSliceCursor(nil)
	case 1:
		return live[0]
	}
	// Small fan-outs (one branch per forest shard, or a document with few
	// tags) pay less for a linear min-scan than for heap maintenance — no
	// sift swaps, no head copies, refill overwrites one slot in place. The
	// crossover sits past any realistic shard count; the heap covers the
	// long tail, such as the "*" stream of a many-tag document.
	if len(live) <= linearMergeMax {
		return &linearMergeCursor{branches: live}
	}
	return &mergeCursor{branches: live}
}

// linearMergeMax bounds the linear-scan variant: k-1 begin comparisons
// per entry beat O(log k) sift steps (each a 32-byte head copy plus two
// comparisons) until roughly this fan-out.
const linearMergeMax = 8

// headLess orders heads by (begin, branch) — the shared tie-break that
// makes equal begins deterministic across runs and shardings.
func headLess(a, b mergeHead) bool {
	if a.e.Label.Begin != b.e.Label.Begin {
		return a.e.Label.Begin < b.e.Label.Begin
	}
	return a.branch < b.branch
}

// linearMergeCursor is the small-k merge: an unordered slice of live
// per-branch heads, min found by linear scan. Same contract and same
// (begin, branch) order as mergeCursor.
type linearMergeCursor struct {
	branches []Cursor
	heads    []mergeHead
	started  bool
}

func (m *linearMergeCursor) prime(pull func(Cursor) (Entry, bool)) {
	m.started = true
	for i, b := range m.branches {
		if e, ok := pull(b); ok {
			m.heads = append(m.heads, mergeHead{e: e, branch: i})
		}
	}
}

func (m *linearMergeCursor) Next() (Entry, bool) {
	if !m.started {
		m.prime(func(b Cursor) (Entry, bool) { return b.Next() })
	}
	if len(m.heads) == 0 {
		return Entry{}, false
	}
	min := 0
	for i := 1; i < len(m.heads); i++ {
		if headLess(m.heads[i], m.heads[min]) {
			min = i
		}
	}
	out := m.heads[min].e
	if e, ok := m.branches[m.heads[min].branch].Next(); ok {
		m.heads[min].e = e
	} else {
		last := len(m.heads) - 1
		m.heads[min] = m.heads[last]
		m.heads = m.heads[:last]
	}
	return out, true
}

// Seek forwards the target into every branch that is behind it, exactly
// like the heap variant; surviving heads stay unordered.
func (m *linearMergeCursor) Seek(begin uint64) (Entry, bool) {
	if !m.started {
		m.prime(func(b Cursor) (Entry, bool) { return b.Seek(begin) })
		return m.Next()
	}
	kept := m.heads[:0]
	for _, h := range m.heads {
		if h.e.Label.Begin >= begin {
			kept = append(kept, h)
			continue
		}
		if e, ok := m.branches[h.branch].Seek(begin); ok {
			kept = append(kept, mergeHead{e: e, branch: h.branch})
		}
	}
	m.heads = kept
	return m.Next()
}

// FilterChunks implements ChunkFilter by forwarding the required keys to
// every branch that takes them (see filterBranches).
func (m *linearMergeCursor) FilterChunks(required []uint64) { filterBranches(m.branches, required) }

// FilterChunks implements ChunkFilter; see filterBranches.
func (m *mergeCursor) FilterChunks(required []uint64) { filterBranches(m.branches, required) }

// filterBranches installs a chunk filter on every branch that implements
// ChunkFilter. A branch that ignores it still yields its full stream, so
// the merge stays a superset of the matching entries either way.
func filterBranches(branches []Cursor, required []uint64) {
	for _, b := range branches {
		if cf, ok := b.(ChunkFilter); ok {
			cf.FilterChunks(required)
		}
	}
}

// mergeHead is one branch's buffered entry in the heap.
type mergeHead struct {
	e      Entry
	branch int // index into branches; the tie-break keeps merges deterministic
}

// mergeCursor is a binary min-heap of per-branch lookahead entries,
// ordered by (Label.Begin, branch). Exhausted branches leave the heap;
// the cursor is exhausted when the heap empties.
type mergeCursor struct {
	branches []Cursor
	heap     []mergeHead
	started  bool
}

// start primes the heap with each branch's first entry.
func (m *mergeCursor) start() {
	m.started = true
	for i, b := range m.branches {
		if e, ok := b.Next(); ok {
			m.heap = append(m.heap, mergeHead{e: e, branch: i})
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *mergeCursor) Next() (Entry, bool) {
	if !m.started {
		m.start()
	}
	if len(m.heap) == 0 {
		return Entry{}, false
	}
	top := m.heap[0]
	m.refill(top.branch)
	return top.e, true
}

// Seek pushes the target down into every branch that is behind it: the
// branch's own Seek does the skipping, and only the surviving heads are
// re-heapified. Branches whose buffered head already satisfies the target
// are left untouched (their cursor position must not be disturbed — the
// head is not yet consumed).
func (m *mergeCursor) Seek(begin uint64) (Entry, bool) {
	if !m.started {
		// Prime lazily but through each branch's Seek, not Next: the very
		// first pull already skips to the target on every branch.
		m.started = true
		for i, b := range m.branches {
			if e, ok := b.Seek(begin); ok {
				m.heap = append(m.heap, mergeHead{e: e, branch: i})
			}
		}
		for i := len(m.heap)/2 - 1; i >= 0; i-- {
			m.siftDown(i)
		}
		return m.Next()
	}
	kept := m.heap[:0]
	for _, h := range m.heap {
		if h.e.Label.Begin >= begin {
			kept = append(kept, h)
			continue
		}
		if e, ok := m.branches[h.branch].Seek(begin); ok {
			kept = append(kept, mergeHead{e: e, branch: h.branch})
		}
	}
	m.heap = kept
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m.Next()
}

// refill replaces the popped root with the same branch's next entry (or
// shrinks the heap when the branch is exhausted) and restores heap order.
func (m *mergeCursor) refill(branch int) {
	if e, ok := m.branches[branch].Next(); ok {
		m.heap[0] = mergeHead{e: e, branch: branch}
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.siftDown(0)
}

func (m *mergeCursor) less(a, b mergeHead) bool { return headLess(a, b) }

func (m *mergeCursor) siftDown(i int) {
	n := len(m.heap)
	for {
		min := i
		if l := 2*i + 1; l < n && m.less(m.heap[l], m.heap[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && m.less(m.heap[r], m.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
}
