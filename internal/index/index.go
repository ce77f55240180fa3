// Package index maintains the tag index incrementally. An Index is an
// immutable snapshot: per-tag posting lists (elements with materialized
// (begin, end) labels, begin-sorted — the per-tag clustering the paper
// assumes for query processing, §3.1) that readers consume without any
// lock. Writers never mutate a published Index; they derive the next
// version with Apply, which copies only the chunks a change batch
// touched and shares the rest — copy-on-write in the style of versioned
// snapshot stores.
//
// Each tag's postings are a sequence of immutable fixed-capacity chunks
// behind a small directory of (minBegin, maxBegin, count) fences
// (chunk.go). The chunking bounds write amplification: a single-posting
// patch into a large tag copies one chunk, not the tag — the COW floor
// is O(chunk) — while the fences give queries a skip index over the same
// layout.
//
// Incrementality leans on the L-Tree's own cost bound: an update relabels
// O(log n) leaves amortized (paper §3), and the document layer reports
// exactly which elements those were (document.Changes). Apply therefore
// patches the few affected chunks instead of re-walking the DOM the way
// BuildTagIndex does.
package index

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// Index is one immutable tag-index version. The zero value is not usable;
// build with Build or From, derive successors with Apply.
type Index struct {
	tags      map[string]*postings
	chunkSize int // inherited by every version derived with Apply

	// sumRoot/sumGen pin the chunk attribute key sets' validity: the
	// document root and its attribute-mutation generation
	// (xmldom.Node.AttrGen) captured at the last full build. A raw
	// SetAttr below the document layer moves the root's generation, and a
	// key set computed before it may falsely claim the new attribute
	// absent — so Cursor disables predicate pushdown (FilterChunks
	// becomes a no-op) whenever the generations disagree: queries fall
	// back to per-entry predicate checks, trading the skip optimization
	// for correctness until the next full build re-captures the
	// generation. Chunks patched by Apply recompute their key sets, but
	// shared chunks reach back to the last full build, so Apply inherits
	// the baseline unchanged. A nil sumRoot (Index built via From, no
	// document in sight) leaves pushdown on — such callers own their
	// attribute discipline.
	sumRoot *xmldom.Node
	sumGen  uint64

	// stats, when set (SetCursorStats), is inherited by every cursor this
	// version hands out — skip/decode observability for benchmarks and
	// experiments, off (nil) in production.
	stats *CursorStats

	// root caches the version's root content hash (hash.go), computed at
	// most once on first RootHash call.
	rootOnce sync.Once
	root     Hash
}

// CursorStats accumulates chunk-granular work accounting across every
// cursor of an index version: chunks whose entries were actually decoded
// vs chunks discarded whole — by the Seek fence search, by a predicate
// pushdown key-set rejection, or by a SeekOpen maxEnd skip. Counters are
// atomic so concurrent cursors may share one CursorStats; increments
// happen at chunk granularity (at most once per ~chunkSize entries), so
// the accounting is effectively free.
type CursorStats struct {
	Decoded       atomic.Uint64 // chunks at least one entry was read from
	SkippedSeek   atomic.Uint64 // chunks jumped by Seek's begin-fence search
	SkippedFilter atomic.Uint64 // chunks rejected by the attribute key set
	SkippedEnd    atomic.Uint64 // chunks discarded by SeekOpen's maxEnd fence
}

// Skipped totals every chunk discarded without decoding.
func (s *CursorStats) Skipped() uint64 {
	return s.SkippedSeek.Load() + s.SkippedFilter.Load() + s.SkippedEnd.Load()
}

// Reset zeroes all counters.
func (s *CursorStats) Reset() {
	s.Decoded.Store(0)
	s.SkippedSeek.Store(0)
	s.SkippedFilter.Store(0)
	s.SkippedEnd.Store(0)
}

// SetCursorStats installs a skip/decode accounting sink on this version:
// every cursor obtained afterwards reports into it. Call before handing
// the version to concurrent readers (the field itself is unsynchronized;
// the counters are atomic). Versions derived with Apply do not inherit
// the sink.
func (ix *Index) SetCursorStats(s *CursorStats) { ix.stats = s }

// Build walks the document and materializes a fresh index version with
// the default chunk size.
func Build(d *document.Doc) *Index { return BuildSized(d, DefaultChunkSize) }

// BuildSized is Build with an explicit chunk capacity (benchmark sweeps
// and split/merge stress tests; production uses DefaultChunkSize).
func BuildSized(d *document.Doc, chunkSize int) *Index {
	root := d.X.Root
	gen := root.AttrGen()
	ix := FromSized(d.BuildTagIndex(), chunkSize)
	// The generation is read BEFORE the walk: an attribute mutation racing
	// the build marks the result stale rather than fresh-by-accident.
	ix.sumRoot, ix.sumGen = root, gen
	return ix
}

// From wraps an already-built tag index. The map is consumed by the Index
// (its slices become chunk storage) and must not be mutated afterwards.
func From(ti document.TagIndex) *Index { return FromSized(ti, DefaultChunkSize) }

// FromSized is From with an explicit chunk capacity.
func FromSized(ti document.TagIndex, chunkSize int) *Index {
	if chunkSize < 1 {
		chunkSize = DefaultChunkSize
	}
	ix := &Index{tags: make(map[string]*postings, len(ti)), chunkSize: chunkSize}
	for tag, posts := range ti {
		if len(posts) > 0 {
			ix.tags[tag] = chunkify(posts, chunkSize)
		}
	}
	return ix
}

// ChunkSize returns the chunk capacity this version (and its successors)
// chunk postings into.
func (ix *Index) ChunkSize() int { return ix.chunkSize }

// Postings materializes the begin-sorted posting list for a tag; "*"
// drains every element in document order. This copies O(tag) — the
// query path should use Cursor instead; Postings remains for snapshots,
// verification, and callers that genuinely need the whole list.
func (ix *Index) Postings(tag string) []document.Entry {
	if tag == "*" {
		return document.DrainCursor(ix.Cursor("*"))
	}
	return ix.tags[tag].flatten()
}

// Cursor returns a streaming view of a tag's postings ("*" streams every
// element in document order). The chunked cursor's Seek skips whole
// chunks via the directory fences; it also implements the optional
// document.ChunkFilter (predicate pushdown) and document.OpenSeeker
// (zig-zag context skip) extensions. The "*" stream is a lazy
// document.Merge of every tag's chunked cursor: begin order is document
// order, so the per-tag runs merge into it without any per-version
// flatten or sort. Opening it costs one head per tag, its Seek fans out
// to each tag's fence search, and its FilterChunks forwards to every
// tag's cursor; it does not support SeekOpen.
func (ix *Index) Cursor(tag string) document.Cursor {
	if tag == "*" {
		// Begins are unique within a version, so the merge's tie-break
		// never consults branch order and map order cannot show.
		curs := make([]document.Cursor, 0, len(ix.tags))
		for t := range ix.tags {
			curs = append(curs, ix.Cursor(t))
		}
		return document.Merge(curs...)
	}
	p := ix.tags[tag]
	if p == nil {
		return document.NewSliceCursor(nil)
	}
	return &chunkCursor{
		fences: p.fences, chunks: p.chunks, stats: ix.stats,
		sumsStale: !ix.SummariesFresh(),
	}
}

// SummariesFresh reports whether the chunk attribute key sets are still
// exact: no attribute mutated below the document root since the last
// full build captured the generation. Stale key sets may hold false
// negatives, so cursors stop honoring FilterChunks until a full rebuild.
func (ix *Index) SummariesFresh() bool {
	return ix.sumRoot == nil || ix.sumRoot.AttrGen() == ix.sumGen
}

// Tags returns the number of distinct tags.
func (ix *Index) Tags() int { return len(ix.tags) }

// Count returns the number of postings for a tag ("*" counts every
// element) without materializing anything.
func (ix *Index) Count(tag string) int {
	if tag == "*" {
		return ix.Len()
	}
	if p := ix.tags[tag]; p != nil {
		return p.count
	}
	return 0
}

// Chunks returns the number of chunks backing a tag's postings (0 for an
// unknown tag) — observability for benchmarks and tests.
func (ix *Index) Chunks(tag string) int {
	if p := ix.tags[tag]; p != nil {
		return len(p.chunks)
	}
	return 0
}

// Len returns the total number of postings.
func (ix *Index) Len() int {
	n := 0
	for _, p := range ix.tags {
		n += p.count
	}
	return n
}

// tagEffect is one tag's slice of a change batch. Added elements route
// to chunks by fence search; touched (relabeled) elements route by their
// current label against current fences; removed elements route by the
// begin label captured at unbind time. Only when a tag saw both
// removals and relabelings in one batch are the two coordinate systems
// incomparable, and discovery falls back to a membership scan.
type tagEffect struct {
	added   []*xmldom.Node
	touched []*xmldom.Node
	removed []uint64 // captured begin labels
}

// Apply derives the next index version from a change batch. Chunks of
// unaffected tags — and untouched chunks of affected tags — are shared
// with the receiver; only chunks holding removed or relabeled entries,
// or receiving additions, are rebuilt (split on overflow, re-merged on
// underflow). The receiver is left untouched and stays valid for readers
// still holding it.
//
// Apply must run with the document quiescent (the write path's exclusive
// section); the returned Index is immutable and may be published to
// readers immediately. An error means the change batch contradicts the
// document (an indexed entry became unbound with no removal record) —
// the index that would have resulted is not published, and the caller
// must treat its current version as stale.
func (ix *Index) Apply(d *document.Doc, ch *document.Changes) (*Index, error) {
	if ch.Empty() {
		return ix, nil
	}
	// Bucket the batch per tag up front so each patchTag pass is linear
	// in its own postings, not in the whole batch.
	effects := make(map[string]*tagEffect)
	effect := func(tag string) *tagEffect {
		e := effects[tag]
		if e == nil {
			e = &tagEffect{}
			effects[tag] = e
		}
		return e
	}
	for n := range ch.Added {
		e := effect(n.Tag())
		e.added = append(e.added, n)
	}
	for n, begin := range ch.Removed {
		e := effect(n.Tag())
		e.removed = append(e.removed, begin)
	}
	for n := range ch.Touched {
		if _, fresh := ch.Added[n]; fresh {
			// Added this batch and never removed: not in the old chunks,
			// the add pass places it. A relabeled node that was removed
			// AND re-added (a move crossing a relabel) stays counted as
			// touched — its old entry sits at a position its captured
			// removal label can no longer name, and the touched marker is
			// what forces the tag onto the sound membership scan.
			if _, gone := ch.Removed[n]; !gone {
				continue
			}
		}
		e := effect(n.Tag())
		e.touched = append(e.touched, n)
	}

	next := &Index{
		tags: make(map[string]*postings, len(ix.tags)+len(effects)), chunkSize: ix.chunkSize,
		sumRoot: ix.sumRoot, sumGen: ix.sumGen,
	}
	for tag, p := range ix.tags {
		if _, hit := effects[tag]; !hit {
			next.tags[tag] = p
		}
	}
	for tag, eff := range effects {
		p, err := ix.patchTag(d, tag, eff, ch)
		if err != nil {
			return nil, err
		}
		if p != nil && p.count > 0 {
			next.tags[tag] = p
		}
	}
	return next, nil
}

// Verify checks an index version against a fresh ground-truth build —
// same tags, same nodes in the same order, same labels and levels — and
// validates the chunk invariants (fences, size bounds, global begin
// order). It is O(n) and meant for invariant suites and tests, not the
// hot path.
func Verify(ix *Index, d *document.Doc) error {
	want := d.BuildTagIndex()
	total := 0
	for tag, wposts := range want {
		total += len(wposts)
		gposts := ix.Postings(tag)
		if len(gposts) != len(wposts) {
			return fmt.Errorf("index: tag %q has %d postings, want %d", tag, len(gposts), len(wposts))
		}
		for i := range wposts {
			switch {
			case gposts[i].Node != wposts[i].Node:
				return fmt.Errorf("index: tag %q posting %d binds the wrong node", tag, i)
			case gposts[i].Label != wposts[i].Label:
				return fmt.Errorf("index: tag %q posting %d has label %v, want %v",
					tag, i, gposts[i].Label, wposts[i].Label)
			case gposts[i].Level != wposts[i].Level:
				return fmt.Errorf("index: tag %q posting %d has level %d, want %d",
					tag, i, gposts[i].Level, wposts[i].Level)
			}
		}
	}
	if got := ix.Len(); got != total {
		return fmt.Errorf("index: holds %d postings, want %d", got, total)
	}
	// The root hash must agree with an independent recomputation from
	// ground truth: a stale cached chunk or tag digest would slip past
	// the content comparison above (which reads entries, not caches)
	// but not past this.
	if got, oracle := ix.RootHash(), RootFrom(want); got != oracle {
		return fmt.Errorf("index: root hash %x disagrees with ground-truth recomputation %x", got, oracle)
	}
	return ix.CheckChunks()
}

// CheckChunks validates the chunk invariants of every tag (see
// postings.checkChunks): fences agree with entries, chunk sizes stay in
// bounds, begins strictly increase. The attribute key-set exactness
// check is waived when the key sets are known stale (a raw SetAttr
// since the last full build) — a stale key set is allowed to be wrong
// precisely because cursors no longer consult it.
func (ix *Index) CheckChunks() error {
	fresh := ix.SummariesFresh()
	for tag, p := range ix.tags {
		if p.count == 0 {
			return fmt.Errorf("index: tag %q kept with no postings", tag)
		}
		if err := p.checkChunks(tag, ix.chunkSize, fresh); err != nil {
			return err
		}
	}
	return nil
}

// patchTag rebuilds one tag's chunked postings against the current
// document state in one fused walk over the chunk directory:
//
//   - removed and relabeled entries are routed to their chunks by binary
//     search up front (locateDirty), and only those chunks are rebuilt —
//     removed entries dropped, relabeled labels re-read;
//   - additions merge into the chunk whose fence range absorbs them,
//     evaluated in current coordinates as the walk refreshes (each
//     chunk's max is exact by the time additions are routed past it),
//     splitting balanced on overflow;
//   - every untouched chunk is shared, and the directory — a pointer-free
//     fence array plus a chunk-pointer array — is copied exactly once;
//   - a final re-balance merges chunks the batch shrank below the size/4
//     floor (mergeUnderflow).
//
// A pure-insert batch — the hot path — costs one chunk copy plus the
// directory copy.
func (ix *Index) patchTag(d *document.Doc, tag string, eff *tagEffect, ch *document.Changes) (*postings, error) {
	old := ix.tags[tag]
	if old == nil {
		old = &postings{}
	}

	// Resolve the additions' labels up front (they also route the walk).
	var fresh []document.Entry
	if len(eff.added) > 0 {
		fresh = make([]document.Entry, 0, len(eff.added))
		for _, n := range eff.added {
			lab, err := d.Label(n)
			if err != nil {
				if _, gone := ch.Removed[n]; gone {
					continue // added and removed within the same batch
				}
				return nil, fmt.Errorf("index: added <%s> element unbound with no removal record: %w", tag, err)
			}
			fresh = append(fresh, document.Entry{Node: n, Label: lab, Level: n.Level()})
		}
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].Label.Begin < fresh[j].Label.Begin })
	}

	// Route removals and relabelings to their chunks (locateDirty); nil
	// when the batch only added.
	var dirty []bool
	if len(eff.touched)+len(eff.removed) > 0 && len(old.chunks) > 0 {
		var err error
		if dirty, err = locateDirty(d, old, eff, ch); err != nil {
			return nil, fmt.Errorf("index: tag %q: %w", tag, err)
		}
	}

	// One fused walk: refresh the dirty chunks (drop removed entries,
	// re-read relabeled labels — stored labels elsewhere are exact, the
	// relabel hook records every renumbered element), merge additions into
	// the chunk whose refreshed fence range absorbs them, share every
	// untouched chunk, and copy the directory exactly once.
	b := grown(len(old.chunks) + 1)
	fi := 0
	for i, c := range old.chunks {
		es := c.entries
		refreshed := false
		if dirty != nil && dirty[i] {
			kept := make([]document.Entry, 0, len(es))
			for _, e := range es {
				if _, gone := ch.Removed[e.Node]; gone {
					continue
				}
				if _, moved := ch.Touched[e.Node]; moved {
					lab, err := d.Label(e.Node)
					if err != nil {
						// An indexed entry became unbound without a removal
						// record: the change batch contradicts the document.
						// Serving on would mean a quietly shrunken index, so
						// fail loudly instead.
						return nil, fmt.Errorf("index: tag %q entry unbound with no removal record: %w", tag, err)
					}
					e.Label = lab
				}
				kept = append(kept, e)
			}
			if len(kept) == 0 {
				continue // additions spill to the next surviving chunk
			}
			es, refreshed = kept, true
		}
		hi := fi
		for hi < len(fresh) && fresh[hi].Label.Begin <= es[len(es)-1].Label.Begin {
			hi++
		}
		switch {
		case hi == fi && !refreshed:
			b.share(old.fences[i], c)
		case hi == fi:
			b.add(es)
		default:
			b.addRun(mergeRuns(es, fresh[fi:hi]), ix.chunkSize)
			fi = hi
		}
	}
	if fi < len(fresh) {
		// Additions past every fence extend the last surviving chunk (or
		// found the tag's first).
		rest := fresh[fi:]
		if n := len(b.chunks); n > 0 {
			last := b.chunks[n-1]
			b.fences, b.chunks = b.fences[:n-1], b.chunks[:n-1]
			b.addRun(mergeRuns(last.entries, rest), ix.chunkSize)
		} else {
			b.addRun(rest, ix.chunkSize)
		}
	}

	// Heal underflow the batch's removals left behind.
	b = mergeUnderflow(b, ix.chunkSize)
	return b.postings(), nil
}

// locateDirty marks the chunks a batch's removals and relabelings land
// in, in sub-linear time. Three sound regimes:
//
//   - relabelings only: a touched element is still bound, so its current
//     begin routes it — binary search over the chunks' *current* maximum
//     begins (curMaxBegin re-reads a fence entry's label only when that
//     entry itself was relabeled; everything else is exact as stored).
//     Current labels order consistently with entry order (L-Tree
//     relabels never reorder, Proposition 1), so the search key is
//     monotone even where stored fences went stale.
//   - removals only: the tag saw no relabeling this batch, so stored
//     fences are exact and the begin captured at unbind time routes the
//     removal directly.
//   - both in one batch (a subtree move landing next to a split, say):
//     the captured begins and the current labels name positions in
//     different coordinate systems, so routing is unsound — fall back to
//     one membership scan over the tag's entries (hash probes only; no
//     untouched chunk is copied). This is the one discovery path that is
//     linear in the tag, and it needs both removals and relabelings of
//     the same tag in the same batch.
func locateDirty(d *document.Doc, p *postings, eff *tagEffect, ch *document.Changes) ([]bool, error) {
	dirty := make([]bool, len(p.chunks))
	switch {
	case len(eff.touched) > 0 && len(eff.removed) > 0:
		for i, c := range p.chunks {
			for _, e := range c.entries {
				if _, gone := ch.Removed[e.Node]; gone {
					dirty[i] = true
					break
				}
				if _, moved := ch.Touched[e.Node]; moved {
					dirty[i] = true
					break
				}
			}
		}
	case len(eff.removed) > 0:
		for _, begin := range eff.removed {
			// A node added and removed within the same batch was never
			// indexed; its captured begin may still land inside a fence
			// range (spuriously copying one chunk whose rebuild then drops
			// nothing — harmless) or past every fence (k == len, skipped).
			k := sort.Search(len(p.fences), func(i int) bool { return p.fences[i].max >= begin })
			if k < len(p.fences) {
				dirty[k] = true
			}
		}
	default:
		for _, n := range eff.touched {
			lab, err := d.Label(n)
			if err != nil {
				return nil, fmt.Errorf("relabeled entry unbound with no removal record: %w", err)
			}
			k := sort.Search(len(p.chunks), func(i int) bool { return curMaxBegin(d, p, i, ch) >= lab.Begin })
			if k < len(p.chunks) {
				dirty[k] = true
			}
		}
	}
	return dirty, nil
}

// curMaxBegin evaluates a chunk's maximum begin label in *current*
// coordinates: the last entry's stored label unless that entry was
// relabeled this batch, in which case the label is re-read. The last
// entry always carries the chunk's maximum — relabeling preserves order
// within the chunk.
func curMaxBegin(d *document.Doc, p *postings, i int, ch *document.Changes) uint64 {
	es := p.chunks[i].entries
	last := es[len(es)-1]
	if _, moved := ch.Touched[last.Node]; moved {
		if lab, err := d.Label(last.Node); err == nil {
			return lab.Begin
		}
		// Unbound fence entry: the rebuild pass reports it; fall through
		// to the stored label so the search itself stays total.
	}
	return p.fences[i].max
}

// mergeRuns merges two begin-sorted runs into a fresh slice.
func mergeRuns(a, b []document.Entry) []document.Entry {
	out := make([]document.Entry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Label.Begin < b[j].Label.Begin {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
