package ltree

import (
	"fmt"
	"iter"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/query"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// Txn is a snapshot-isolated read transaction: it captures one published
// index version at open and serves every read — Query, Elements,
// Descendants, Label, IsAncestor, Compare — from that version for its
// whole lifetime. Reads inside one Txn are therefore mutually
// consistent: a writer committing concurrently publishes new versions,
// but this handle never observes them, and the pinned version (including
// every label it materialized) stays fully readable until Close.
//
// A Txn never blocks writers and holds no lock: the pinned version is
// immutable, so its reads are plain memory reads. The one deliberate
// exception is QueryNav, the label-free reference evaluator, which
// navigates the live DOM under the read lock and is documented as not
// snapshot-pinned.
//
// What a pinned version guarantees — and what it does not: labels,
// document order, ancestry and query results all come from the capture
// instant. The *Elem pointers returned are the live DOM nodes, though;
// their tag and attributes are read from the document as it is now, and
// a node deleted after the capture still appears in this Txn's results
// (detached, but structurally frozen in the snapshot's labels). See
// DESIGN.md §3.4.
//
// A Txn is not safe for concurrent use by multiple goroutines; open one
// per goroutine (opening is cheap — a counter increment, no copying).
//
// A Txn opened from a Forest is a composite: one pinned part per shard,
// with Query/Stream/Elements/Count fanning out and merging in global
// begin order, and the label reads (Label, IsAncestor, Compare)
// resolving in the owning shard's coordinate space. Shards/ShardTxn
// expose the parts. ForestTxn is an alias of Txn kept for readability
// at forest call sites.
type Txn struct {
	s       *Store
	ver     *index.Version
	release func()

	// parts/roots make this Txn a forest composite: one pinned
	// single-store Txn per shard, plus each shard's synthetic root so
	// merged streams can filter it. nil for plain store transactions
	// (s/ver are then set instead, and vice versa).
	parts []*Txn
	roots []*Elem

	// byTag lazily memoizes node→posting lookups against the pinned
	// version, per tag, for the label reads (Label, IsAncestor, Compare,
	// Descendants): the first lookup of a tag drains its cursor once, and
	// every later lookup is a hash probe.
	byTag map[string]map[*Elem]document.Entry

	// predMemo mirrors byTag for attribute predicates: node→verdict
	// caches shared per step signature across every Query this Txn
	// evaluates, so repeated predicate-bearing queries resolve each
	// node's attributes once (a hash probe afterwards). Allocated on the
	// first predicate-bearing query.
	predMemo *query.PredMemo
}

// View runs fn inside a read transaction: every read through the Txn
// observes the one index version current when View began, regardless of
// concurrent commits. The transaction is released when fn returns; fn's
// error is returned as-is. This is the Store's analogue of a database
// View/ReadTx block, and the primitive the single-shot Query/Elements
// wrappers are built on.
func (s *Store) View(fn func(*Txn) error) error {
	tx := s.SnapshotView()
	defer tx.Close()
	return fn(tx)
}

// SnapshotView opens a read transaction pinned to the current index
// version and returns the handle. The caller owns its lifetime and must
// Close it; prefer View unless the transaction has to cross function or
// goroutine boundaries.
func (s *Store) SnapshotView() *Txn {
	ver, release := s.vers.Pin()
	return &Txn{s: s, ver: ver, release: release}
}

// SnapshotAt opens a read transaction pinned to an explicit version
// number: the current version, or a retired one that some open
// transaction still pins (pinning is what keeps a retired version
// attachable — see DESIGN.md §3.4). ErrVersionRetired otherwise.
func (s *Store) SnapshotAt(version uint64) (*Txn, error) {
	ver, release, ok := s.vers.PinAt(version)
	if !ok {
		return nil, ErrVersionRetired
	}
	return &Txn{s: s, ver: ver, release: release}, nil
}

// TxnStats reports the open read-transaction pin count and how many
// retired index versions those pins are keeping attachable — the
// engine's retire accounting, useful for spotting leaked handles.
func (s *Store) TxnStats() (open, retired int) { return s.vers.Stats() }

// Close releases the transaction's pin on its index version. Idempotent.
// After Close, error-returning reads (Query, QueryNav, Descendants,
// Label, IsAncestor, Compare) report ErrTxnClosed; the errorless ones
// degrade to their empty values (Elements nil, Stream exhausted, Count
// and Version 0). Results cursors obtained before Close keep working
// (the version is immutable and reachable through them), but the
// version's registry entry may be retired.
func (t *Txn) Close() error {
	for _, p := range t.parts {
		p.Close()
	}
	if t.release != nil {
		t.release()
		t.release = nil
		t.ver = nil
	}
	return nil
}

// Version returns the pinned index version number: every read through
// this Txn observes exactly this version. A forest composite reports
// the sum of its parts' versions (the forest's composite version; see
// Forest.IndexVersion).
func (t *Txn) Version() uint64 {
	if t.parts != nil {
		var sum uint64
		for _, p := range t.parts {
			sum += p.Version()
		}
		return sum
	}
	if t.ver == nil {
		return 0
	}
	return t.ver.N
}

// Shards returns the composite's shard count: 0 for a plain store Txn.
func (t *Txn) Shards() int { return len(t.parts) }

// ShardTxn exposes shard i's pinned part — for per-shard reads (labels,
// ancestry) in that shard's own coordinate space. Panics on a plain
// store Txn (Shards() == 0).
func (t *Txn) ShardTxn(i int) *Txn { return t.parts[i] }

// ix returns the pinned index or fails if the transaction is closed.
func (t *Txn) ix() (*index.Index, error) {
	if t.ver == nil {
		return nil, ErrTxnClosed
	}
	return t.ver.Ix, nil
}

// Query evaluates a path expression against the pinned version and
// returns a streaming Results cursor: matches surface one at a time, in
// document order, with intermediate memory bounded by the path depth
// times the document depth — nothing is materialized unless the caller
// Collects. The rooted anchor, every join input and every label come
// from the snapshot, so two Queries in one Txn compose consistently.
func (t *Txn) Query(expr string) (*Results, error) {
	p, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	if t.parts != nil {
		p = forestPath(p)
		rs := make([]*Results, len(t.parts))
		for i, part := range t.parts {
			if _, err := part.ix(); err != nil {
				return nil, err
			}
			rs[i] = withoutShardRoot(part.resultsFor(p), t.roots[i])
		}
		return MergeResults(rs...), nil
	}
	if _, err := t.ix(); err != nil {
		return nil, err
	}
	return t.resultsFor(p), nil
}

// resultsFor builds the lazy pipeline for an already-parsed path: the
// zig-zag join with chunk-level predicate pushdown, sharing this Txn's
// predicate verdict memo across queries.
func (t *Txn) resultsFor(p *query.Path) *Results {
	opts := query.EvalOptions{}
	if pathHasPreds(p) {
		if t.predMemo == nil {
			t.predMemo = query.NewPredMemo()
		}
		opts.Memo = t.predMemo
	}
	return &Results{cur: query.JoinCursorWith(t.ver.Ix, p, opts)}
}

// pathHasPreds reports whether any step carries attribute predicates.
func pathHasPreds(p *query.Path) bool {
	for _, st := range p.Steps {
		if len(st.Preds) > 0 {
			return true
		}
	}
	return false
}

// QueryNav evaluates a path by plain DOM navigation — the label-free
// reference evaluator. It reads the live document under the store's read
// lock, NOT the pinned snapshot: results reflect writes committed after
// this Txn opened. It exists for cross-checking and benchmarks; use
// Query for snapshot-consistent reads.
func (t *Txn) QueryNav(expr string) ([]*Elem, error) {
	p, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	if t.parts != nil {
		return nil, fmt.Errorf("ltree: QueryNav is a single-store reference evaluator; navigate one shard's Txn (ShardTxn) instead")
	}
	if t.ver == nil {
		return nil, ErrTxnClosed
	}
	return t.navFor(p), nil
}

// navFor runs the navigation evaluator under the read lock.
func (t *Txn) navFor(p *query.Path) []*Elem {
	t.s.mu.RLock()
	defer t.s.mu.RUnlock()
	return query.Nav(t.s.doc, p)
}

// Elements materializes the pinned version's elements with the given tag
// ("*" = all; composites exclude shard roots) in document order. Stream
// is the lazy equivalent.
func (t *Txn) Elements(tag string) []*Elem {
	if t.parts != nil {
		return t.Stream(tag).Collect()
	}
	ix, err := t.ix()
	if err != nil {
		return nil
	}
	out := make([]*Elem, 0, ix.Count(tag))
	cur := ix.Cursor(tag)
	for e, ok := cur.Next(); ok; e, ok = cur.Next() {
		out = append(out, e.Node)
	}
	return out
}

// Stream returns the pinned version's posting stream for a tag ("*" =
// every element) as a Results cursor — document order, nothing copied.
// A composite merges its parts' streams in global begin order with the
// shard roots filtered.
func (t *Txn) Stream(tag string) *Results {
	if t.parts != nil {
		rs := make([]*Results, len(t.parts))
		for i, part := range t.parts {
			rs[i] = withoutShardRoot(part.Stream(tag), t.roots[i])
		}
		return MergeResults(rs...)
	}
	ix, err := t.ix()
	if err != nil {
		return &Results{cur: document.NewSliceCursor(nil)}
	}
	return &Results{cur: ix.Cursor(tag)}
}

// Count returns the pinned version's posting count for a tag ("*" =
// every element; composites exclude shard roots) without materializing
// anything.
func (t *Txn) Count(tag string) int {
	if t.parts != nil {
		total := 0
		for _, part := range t.parts {
			total += part.Count(tag)
			if (tag == "*" || tag == shardRootTag) && part.ver != nil {
				total-- // the synthetic shard root is not a forest element
			}
		}
		return total
	}
	ix, err := t.ix()
	if err != nil {
		return 0
	}
	return ix.Count(tag)
}

// Descendants streams every element strictly inside n — in the pinned
// version's coordinates — as one index range scan. Like every Txn read
// it is consistent with the Txn's other reads: the anchor label and the
// scanned postings come from the same version.
func (t *Txn) Descendants(n *Elem) (*Results, error) {
	if t.parts != nil {
		i, _, err := t.partEntry(n)
		if err != nil {
			return nil, err
		}
		return t.parts[i].Descendants(n)
	}
	e, err := t.entry(n)
	if err != nil {
		return nil, err
	}
	return &Results{cur: query.DescendantsCursor(t.ver.Ix, e)}, nil
}

// Label returns n's (begin, end) interval as of the pinned version.
// Within a Txn, labels resolve from the snapshot: an element inserted
// after the capture — or absent from it for any reason, including text
// nodes, which the tag index does not cover — reports ErrUnbound, and an
// element relabeled after the capture keeps its capture-time label. Use
// Store.Label for the live value (text nodes included).
func (t *Txn) Label(n *Elem) (Label, error) {
	if t.parts != nil {
		_, e, err := t.partEntry(n)
		if err != nil {
			return Label{}, err
		}
		return e.Label, nil
	}
	e, err := t.entry(n)
	if err != nil {
		return Label{}, err
	}
	return e.Label, nil
}

// Level returns n's depth as recorded by the pinned version's index.
// Like Label, it resolves from the snapshot: a node moved to a
// different depth after the capture keeps its capture-time level. A
// change-feed consumer rebuilding a content multiset needs this —
// entries hash as (tag, label, level), and Elem.Level reports only the
// live depth.
func (t *Txn) Level(n *Elem) (int, error) {
	if t.parts != nil {
		_, e, err := t.partEntry(n)
		if err != nil {
			return 0, err
		}
		return e.Level, nil
	}
	e, err := t.entry(n)
	if err != nil {
		return 0, err
	}
	return e.Level, nil
}

// IsAncestor decides ancestry purely from the pinned version's labels
// (the paper's containment test). On a composite, elements living in
// different shards are never related — no forest document spans shards.
func (t *Txn) IsAncestor(a, d *Elem) (bool, error) {
	if t.parts != nil {
		ia, ea, err := t.partEntry(a)
		if err != nil {
			return false, err
		}
		id, ed, err := t.partEntry(d)
		if err != nil {
			return false, err
		}
		return ia == id && ea.Label.Contains(ed.Label), nil
	}
	ea, err := t.entry(a)
	if err != nil {
		return false, err
	}
	ed, err := t.entry(d)
	if err != nil {
		return false, err
	}
	return ea.Label.Contains(ed.Label), nil
}

// Compare orders two elements by document order using the pinned
// version's labels only: -1, 0 or 1. A composite orders by (begin,
// shard) — exactly the deterministic global order its merged streams
// deliver.
func (t *Txn) Compare(a, b *Elem) (int, error) {
	var ea, eb document.Entry
	var ia, ib int
	var err error
	if t.parts != nil {
		if ia, ea, err = t.partEntry(a); err != nil {
			return 0, err
		}
		if ib, eb, err = t.partEntry(b); err != nil {
			return 0, err
		}
	} else {
		if ea, err = t.entry(a); err != nil {
			return 0, err
		}
		if eb, err = t.entry(b); err != nil {
			return 0, err
		}
	}
	switch {
	case ea.Label.Begin < eb.Label.Begin:
		return -1, nil
	case ea.Label.Begin > eb.Label.Begin:
		return 1, nil
	case ia < ib:
		return -1, nil
	case ia > ib:
		return 1, nil
	default:
		return 0, nil
	}
}

// partEntry resolves an element's posting across a composite's parts,
// returning the owning shard index. Exactly one shard can hold the
// element (documents never span shards), so the first hit wins.
func (t *Txn) partEntry(n *Elem) (int, document.Entry, error) {
	for i, p := range t.parts {
		e, err := p.entry(n)
		if err == nil {
			return i, e, nil
		}
		if err != ErrUnbound {
			return 0, document.Entry{}, err
		}
	}
	return 0, document.Entry{}, ErrUnbound
}

// entry resolves an element's posting in the pinned version, memoizing
// one tag's postings per lookup tag (the first lookup drains the tag's
// cursor; later ones are hash probes).
func (t *Txn) entry(n *Elem) (document.Entry, error) {
	ix, err := t.ix()
	if err != nil {
		return document.Entry{}, err
	}
	if n == nil || n.Kind() != xmldom.Element {
		return document.Entry{}, ErrUnbound
	}
	tag := n.Tag()
	m := t.byTag[tag]
	if m == nil {
		m = make(map[*Elem]document.Entry, ix.Count(tag))
		cur := ix.Cursor(tag)
		for e, ok := cur.Next(); ok; e, ok = cur.Next() {
			m[e.Node] = e
		}
		if t.byTag == nil {
			t.byTag = make(map[string]map[*Elem]document.Entry)
		}
		t.byTag[tag] = m
	}
	e, ok := m[n]
	if !ok {
		return document.Entry{}, ErrUnbound
	}
	return e, nil
}

// Results streams query matches in document order. It is single-use and
// forward-only, not safe for concurrent use; obtain one per traversal.
// Pulling from a Results does no locking and touches only the immutable
// index version it was built from.
type Results struct {
	cur document.Cursor
}

// Next yields the next match, or ok=false once exhausted.
func (r *Results) Next() (*Elem, bool) {
	e, ok := r.cur.Next()
	return e.Node, ok
}

// NextLabeled is Next plus the match's snapshot label — handy for
// range-bounded consumption together with Seek.
func (r *Results) NextLabeled() (*Elem, Label, bool) {
	e, ok := r.cur.Next()
	return e.Node, e.Label, ok
}

// Seek advances to the first match whose label begin is >= begin and
// yields it. Seeking never retreats: a begin at or behind the current
// position degrades to Next. On the chunked index a Seek skips whole
// chunks by fence comparison, so jumping over a cold region costs
// O(chunks skipped), not O(postings skipped).
func (r *Results) Seek(begin uint64) (*Elem, bool) {
	e, ok := r.cur.Seek(begin)
	return e.Node, ok
}

// MergeResults merges begin-sorted Results streams into one Results in
// global (begin, argument-order) order — the k-way merge the forest's
// scatter-gather queries are built on, exported because any begin-sorted
// streams compose the same way (e.g. two tag streams of one Txn, or one
// stream per shard Txn). Nil streams are skipped. Consumption stays
// lazy: one buffered entry per input, and Seek pushes the target down
// into every input (fence-directory jumps on chunked indexes). The
// inputs must come from the same label space for the merged order to be
// meaningful; merging across stores (as the forest does) still yields
// each input's entries in order, interleaved deterministically.
//
// The merged stream keeps the forward-only Results contract: Seek never
// retreats, because every input is itself forward-only — a begin at or
// behind the current position degrades to Next on every input.
func MergeResults(rs ...*Results) *Results {
	curs := make([]document.Cursor, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			curs = append(curs, r.cur)
		}
	}
	return &Results{cur: document.Merge(curs...)}
}

// Collect drains the remaining matches into a slice — the materializing
// adapter the compatibility wrappers use.
func (r *Results) Collect() []*Elem {
	var out []*Elem
	for e, ok := r.cur.Next(); ok; e, ok = r.cur.Next() {
		out = append(out, e.Node)
	}
	return out
}

// All adapts the remaining matches to a range-over-func iterator:
//
//	for el := range res.All() { ... }
//
// Breaking out of the loop simply stops pulling; nothing is leaked.
func (r *Results) All() iter.Seq[*Elem] {
	return func(yield func(*Elem) bool) {
		for e, ok := r.cur.Next(); ok; e, ok = r.cur.Next() {
			if !yield(e.Node) {
				return
			}
		}
	}
}

// Labeled is All with each match's snapshot label as the second value.
func (r *Results) Labeled() iter.Seq2[*Elem, Label] {
	return func(yield func(*Elem, Label) bool) {
		for e, ok := r.cur.Next(); ok; e, ok = r.cur.Next() {
			if !yield(e.Node, e.Label) {
				return
			}
		}
	}
}
