package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/ltree-db/ltree/internal/document"
)

// DefaultChunkSize is the target chunk capacity: the copy-on-write floor
// of a single-posting patch. 256 entries keeps a chunk around 10KB — big
// enough that the per-chunk directory stays tiny, small enough that the
// copy is a short memmove.
const DefaultChunkSize = 256

// chunk is an immutable run of begin-sorted postings. Once a chunk is
// referenced by a published index version it is never mutated; patches
// build replacement chunks and share the rest.
type chunk struct {
	entries []document.Entry // 1 <= len <= chunkSize

	// keys is the exact attribute key set of the entries, built with the
	// chunk; predicate-filtered cursors binary-search it to reject the
	// chunk before decoding a posting.
	keys document.AttrKeySet

	// sum caches the chunk's content digest (hash.go), computed lazily
	// at most once — immutability makes the cache safe to share across
	// every version referencing the chunk.
	sumOnce sync.Once
	sum     digest
}

func (c *chunk) minBegin() uint64 { return c.entries[0].Label.Begin }
func (c *chunk) maxBegin() uint64 { return c.entries[len(c.entries)-1].Label.Begin }

// fence summarizes one chunk for routing and skip scans: its first and
// last begin labels, plus the maximum end label of any entry in the
// chunk. Begins are monotone across the directory so (min, max) drives
// binary-searched Seeks; maxEnd is NOT monotone (an early chunk may hold
// the root's huge interval) and drives the zig-zag join's SeekOpen —
// a chunk with maxEnd < target provably holds only intervals closed
// before the target, so a context-side skip discards it whole. Fences
// are kept in their own pointer-free packed array so a directory copy is
// a plain memmove (no write barriers) and a cursor's Seek binary-searches
// cache-dense uint64 triples — the fences double as a skip index over the
// chunk sequence, in the spirit of the clustered per-tag layouts of
// succinct labeled-tree representations.
type fence struct {
	min    uint64
	max    uint64
	maxEnd uint64
}

// postings is one tag's chunked posting list: parallel fence and chunk
// arrays (the directory; fences[i] describes chunks[i]) plus the entry
// total. A patch copies the directory — pointer-free fence bytes plus one
// pointer per chunk — and the chunks it touches; everything else is
// shared between versions. Each chunk carries its own attribute key set,
// so a shared chunk shares its set too.
type postings struct {
	fences []fence
	chunks []*chunk
	count  int

	// sum caches the tag's content digest — the lane-wise sum of its
	// chunks' digests (hash.go) — computed lazily at most once per
	// version. Untouched tags share the postings pointer across
	// versions, so their digest is computed once ever.
	sumOnce sync.Once
	sum     digest
}

// builder accumulates a directory during a patch pass.
type builder struct {
	fences []fence
	chunks []*chunk
}

// grown pre-sizes a builder for about n chunks.
func grown(n int) builder {
	return builder{
		fences: make([]fence, 0, n),
		chunks: make([]*chunk, 0, n),
	}
}

// share appends an existing chunk with its fence unchanged.
func (b *builder) share(f fence, c *chunk) {
	b.fences = append(b.fences, f)
	b.chunks = append(b.chunks, c)
}

// add wraps a fresh entry run as one chunk and computes its fence and
// attribute key set. This is the one place chunk metadata is born: a
// rebuilt chunk re-reads its entries' labels and attributes, so fences
// and key sets published by Apply are always exact for their entries.
func (b *builder) add(es []document.Entry) {
	c := &chunk{entries: es, keys: document.KeySetOf(es)}
	f := fence{min: c.minBegin(), max: c.maxBegin()}
	for _, e := range es {
		if e.Label.End > f.maxEnd {
			f.maxEnd = e.Label.End
		}
	}
	b.fences = append(b.fences, f)
	b.chunks = append(b.chunks, c)
}

// addRun splits a begin-sorted entry run into balanced chunks of at
// most size entries each. Balancing (rather than greedy filling) keeps
// every emitted chunk at least size/2 when the run overflows, so splits
// never create an undersized remainder.
func (b *builder) addRun(es []document.Entry, size int) {
	n := len(es)
	if n == 0 {
		return
	}
	k := (n + size - 1) / size
	base, rem := n/k, n%k
	for lo := 0; lo < n; {
		hi := lo + base
		if rem > 0 {
			hi++
			rem--
		}
		b.add(es[lo:hi:hi])
		lo = hi
	}
}

// posting finalizes the builder into a postings value.
func (b *builder) postings() *postings {
	p := &postings{fences: b.fences, chunks: b.chunks}
	for _, c := range b.chunks {
		p.count += len(c.entries)
	}
	return p
}

// chunkify builds a tag's chunked postings from a begin-sorted run.
func chunkify(es []document.Entry, size int) *postings {
	b := grown((len(es) + size - 1) / size)
	b.addRun(es, size)
	return b.postings()
}

// flatten materializes the full begin-sorted run.
func (p *postings) flatten() []document.Entry {
	if p == nil {
		return nil
	}
	out := make([]document.Entry, 0, p.count)
	for _, c := range p.chunks {
		out = append(out, c.entries...)
	}
	return out
}

// mergeUnderflow re-balances a patched directory: a chunk that shrank
// below size/4 absorbs following chunks (or, at the tail, its
// predecessor) until the run reaches the floor again, then re-splits
// balanced. Chunks already at or above the floor pass through untouched,
// so the work stays proportional to the chunks the batch shrank. A tag
// whose entire population fits below the floor keeps one undersized
// chunk — the only-chunk exception.
func mergeUnderflow(b builder, size int) builder {
	min := size / 4
	if min < 1 {
		min = 1
	}
	if len(b.chunks) < 2 {
		return b
	}
	ok := true
	for _, c := range b.chunks {
		if len(c.entries) < min {
			ok = false
			break
		}
	}
	if ok {
		return b
	}
	out := grown(len(b.chunks))
	for i := 0; i < len(b.chunks); {
		if len(b.chunks[i].entries) >= min {
			out.share(b.fences[i], b.chunks[i])
			i++
			continue
		}
		run := append([]document.Entry(nil), b.chunks[i].entries...)
		i++
		for len(run) < min && i < len(b.chunks) {
			run = append(run, b.chunks[i].entries...)
			i++
		}
		if len(run) < min && len(out.chunks) > 0 {
			prev := out.chunks[len(out.chunks)-1]
			out.fences = out.fences[:len(out.fences)-1]
			out.chunks = out.chunks[:len(out.chunks)-1]
			run = append(append([]document.Entry(nil), prev.entries...), run...)
		}
		out.addRun(run, size)
	}
	return out
}

// checkChunks validates the chunk invariants for one tag: fences match
// the entries (min/max begin exact, maxEnd covering every entry's end),
// sizes stay within [size/4, size] (the floor waived for a tag's only
// chunk), begins strictly increase within and across chunks, the
// attribute key set equals the one recomputed from the entries (a lost
// key would make predicate pushdown silently drop matches, an extra one
// would admit chunks for nothing, so both are checked loudly here), and
// the directory count matches the entry total.
func (p *postings) checkChunks(tag string, size int, sumsFresh bool) error {
	min := size / 4
	if min < 1 {
		min = 1
	}
	if len(p.fences) != len(p.chunks) {
		return fmt.Errorf("index: tag %q has %d fences for %d chunks", tag, len(p.fences), len(p.chunks))
	}
	total := 0
	prev := uint64(0)
	first := true
	for i, c := range p.chunks {
		n := len(c.entries)
		if n == 0 {
			return fmt.Errorf("index: tag %q chunk %d is empty", tag, i)
		}
		if n > size {
			return fmt.Errorf("index: tag %q chunk %d holds %d entries, max %d", tag, i, n, size)
		}
		if n < min && len(p.chunks) > 1 {
			return fmt.Errorf("index: tag %q chunk %d holds %d entries, floor %d", tag, i, n, min)
		}
		if p.fences[i].min != c.minBegin() || p.fences[i].max != c.maxBegin() {
			return fmt.Errorf("index: tag %q chunk %d fences (%d,%d) disagree with entries (%d,%d)",
				tag, i, p.fences[i].min, p.fences[i].max, c.minBegin(), c.maxBegin())
		}
		for _, e := range c.entries {
			if !first && e.Label.Begin <= prev {
				return fmt.Errorf("index: tag %q begin %d out of order in chunk %d", tag, e.Label.Begin, i)
			}
			if e.Label.End > p.fences[i].maxEnd {
				return fmt.Errorf("index: tag %q chunk %d maxEnd fence %d below entry end %d",
					tag, i, p.fences[i].maxEnd, e.Label.End)
			}
			if sumsFresh {
				for _, a := range e.Node.Attrs() {
					if !c.keys.Has(document.AttrKeyHash(a.Name)) {
						return fmt.Errorf("index: tag %q chunk %d key set lost attr key %q", tag, i, a.Name)
					}
					if !c.keys.Has(document.AttrKVHash(a.Name, a.Value)) {
						return fmt.Errorf("index: tag %q chunk %d key set lost attr pair %s=%q", tag, i, a.Name, a.Value)
					}
				}
			}
			prev = e.Label.Begin
			first = false
			total++
		}
		if sumsFresh && !slices.Equal(c.keys, document.KeySetOf(c.entries)) {
			return fmt.Errorf("index: tag %q chunk %d key set holds an extra key or is not sorted and de-duplicated", tag, i)
		}
	}
	if total != p.count {
		return fmt.Errorf("index: tag %q directory count %d, entries %d", tag, p.count, total)
	}
	return nil
}

// chunkCursor streams a chunked posting list. Seek uses the packed
// fence array to discard whole chunks before descending into one — the
// skip step that accelerates structural joins over large tags. Two
// opt-in extensions skip further without decoding postings:
//
//   - FilterChunks (predicate pushdown): required attribute-key hashes,
//     installed by the query layer for a predicate-bearing step; a chunk
//     whose exact key set lacks any required key is rejected whole.
//   - SeekOpen (zig-zag context skip): discards chunks whose maxEnd
//     fence proves every interval closed before the target.
type chunkCursor struct {
	fences    []fence
	chunks    []*chunk
	required  []uint64     // conjunctive attr-key hashes; nil = no pushdown
	stats     *CursorStats // optional skip/decode accounting; nil = off
	sumsStale bool         // key sets predate an attr mutation: ignore them
	ci        int          // current chunk
	ei        int          // next entry within it
	decoded   int          // last chunk counted as decoded (stats), -1 none
}

// FilterChunks implements document.ChunkFilter: install the required
// attribute-key hashes. The resulting stream omits every chunk whose key
// set lacks a required key — a superset of the matching entries (a chunk
// may hold each key on a different entry, or admit one by a 64-bit hash
// collision), not the full tag stream. When the version's key sets are
// stale (an attribute mutated below the document layer since the last
// full build), the install is a no-op: a stale set can miss a key, and a
// skipped chunk is a silently dropped match — so the cursor serves the
// full stream and leaves filtering to the per-entry predicate check
// above it.
func (c *chunkCursor) FilterChunks(required []uint64) {
	if c.sumsStale {
		return
	}
	c.required = required
}

// passes reports whether chunk i holds every required attribute key:
// one binary search of its key set per key.
func (c *chunkCursor) passes(i int) bool {
	for _, h := range c.required {
		if !c.chunks[i].keys.Has(h) {
			return false
		}
	}
	return true
}

// admit advances past filter-rejected chunks. Only whole, unentered
// chunks are tested (ei == 0): once a chunk yielded an entry it stays
// admitted.
func (c *chunkCursor) admit() {
	if c.required == nil {
		return
	}
	for c.ei == 0 && c.ci < len(c.chunks) && !c.passes(c.ci) {
		c.ci++
		if c.stats != nil {
			c.stats.SkippedFilter.Add(1)
		}
	}
}

// note counts the current chunk as decoded (first entry touched) at most
// once per chunk.
func (c *chunkCursor) note() {
	if c.stats != nil && c.decoded != c.ci+1 {
		c.decoded = c.ci + 1
		c.stats.Decoded.Add(1)
	}
}

// Next implements document.Cursor.
func (c *chunkCursor) Next() (document.Entry, bool) {
	for c.ci < len(c.chunks) {
		if c.ei == 0 {
			c.admit()
			if c.ci >= len(c.chunks) {
				break
			}
		}
		es := c.chunks[c.ci].entries
		if c.ei < len(es) {
			c.note()
			e := es[c.ei]
			c.ei++
			return e, true
		}
		c.ci++
		c.ei = 0
	}
	return document.Entry{}, false
}

// Seek implements document.Cursor: binary search over the remaining
// fences, then over the landing chunk's remaining entries.
func (c *chunkCursor) Seek(begin uint64) (document.Entry, bool) {
	if c.ci < len(c.chunks) && c.fences[c.ci].max < begin {
		rest := c.fences[c.ci:]
		n := sort.Search(len(rest), func(i int) bool { return rest[i].max >= begin })
		c.ci += n
		c.ei = 0
		if c.stats != nil {
			c.stats.SkippedSeek.Add(uint64(n))
		}
	}
	if c.ei == 0 {
		c.admit()
	}
	if c.ci >= len(c.chunks) {
		return document.Entry{}, false
	}
	es := c.chunks[c.ci].entries[c.ei:]
	c.ei += sort.Search(len(es), func(i int) bool { return es[i].Label.Begin >= begin })
	return c.Next()
}

// SeekOpen implements document.OpenSeeker: advance to the first
// remaining entry whose interval may still be open at begin, skipping —
// without decoding — every chunk whose maxEnd fence proves all its
// intervals closed before the target (and, with a filter installed,
// chunks missing a required attribute key). maxEnd is not monotone
// across the directory, so this is a forward fence scan, not a binary
// search: O(chunks passed), never O(postings).
func (c *chunkCursor) SeekOpen(begin uint64) (document.Entry, bool) {
	for c.ci < len(c.chunks) {
		if c.fences[c.ci].maxEnd < begin {
			// Every entry here has End < begin (hence Begin < begin too):
			// closed before the target, irrelevant to this and every later
			// open-seek or candidate.
			c.ci++
			c.ei = 0
			if c.stats != nil {
				c.stats.SkippedEnd.Add(1)
			}
			continue
		}
		if c.ei == 0 {
			c.admit()
			if c.ci >= len(c.chunks) {
				break
			}
			if c.fences[c.ci].maxEnd < begin {
				continue // admit moved us onto another closed chunk
			}
		}
		es := c.chunks[c.ci].entries
		if c.ei < len(es) {
			c.note()
		}
		for c.ei < len(es) {
			e := es[c.ei]
			c.ei++
			if e.Label.Begin >= begin || e.Label.End >= begin {
				return e, true
			}
		}
		c.ci++
		c.ei = 0
	}
	return document.Entry{}, false
}
