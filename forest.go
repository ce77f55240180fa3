package ltree

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/query"
	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// Forest is the horizontal-scale layer: many documents partitioned
// across N independent Store shards behind one router. Documents are the
// natural partition unit — the paper's labeling is per-document, so no
// operation ever spans two documents — which buys three things a single
// Store cannot provide:
//
//   - N independent write pipelines: a write routes to exactly one shard
//     and commits under that shard's lock and WAL group commit, so
//     writers touching different shards proceed fully in parallel
//     instead of serializing behind one write lock and one fsync queue.
//   - Scatter-gather reads that stay lazy: Query/Elements fan out one
//     pinned read transaction per shard and merge the per-shard
//     streaming Results cursors through a k-way merge that is itself a
//     Results — intermediate memory stays one buffered entry per shard,
//     and Seek pushes down into every shard's fence directories.
//   - N-way parallel crash recovery: OpenForest replays every shard's
//     WAL concurrently, so recovery time is O(largest shard log), not
//     O(total log).
//
// Placement is consistent: a document id hashes to its shard (pluggable
// via Partitioner) and stays there for the forest's lifetime. The shard
// count is pinned by an on-disk manifest; reopening with a different
// count fails loudly (ErrForestTopology — there is no resharding yet).
//
// Inside each shard the documents hang off a synthetic shard root, so
// every per-shard structure (one WAL, one COW index, one label space)
// is exactly a Store. Labels are therefore per-shard coordinates: merged
// query results are in a deterministic global order (per-shard document
// order, interleaved by label with a stable shard tie-break), but labels
// from different shards are not mutually comparable — use the Txn/Store
// surfaces of one shard, or DocOf, when provenance matters.
type Forest struct {
	shards []*forestShard
	part   Partitioner

	// mu guards the document registry only. Shard mutations run under
	// each shard Store's own lock — never under mu — so writes to
	// different shards commit concurrently.
	mu   sync.RWMutex
	docs map[string]*forestDoc
}

// forestShard is one partition: a full Store, plus its WAL handle when
// the forest is durably backed (nil for in-memory forests).
type forestShard struct {
	st  *Store
	wal *storage.WAL
}

// forestDoc is the registry entry for one document. root is nil while a
// write to the document is in flight (the pending marker that makes
// same-document write races a loud ErrDocBusy instead of corruption).
type forestDoc struct {
	shard int
	root  *Elem
}

// shardRootTag tags each shard's synthetic root element. It never
// surfaces from forest queries: rooted paths anchor below it and the
// merged cursors filter it from wildcard streams.
const shardRootTag = "ltree-forest-shard"

// forestDocAttr is the attribute on each document root carrying its id.
// It rides the normal op log and snapshots, so recovery rebuilds the
// document registry from the shard stores alone.
const forestDocAttr = "ltree.doc"

// Partitioner places documents on shards: Shard returns the shard index
// in [0, shards) for a document id. Placement must be deterministic —
// the forest routes every later operation on the id through the same
// function. Changing the partitioner of an existing forest only affects
// documents inserted afterwards: already-placed documents are routed by
// the registry, not re-hashed.
type Partitioner interface {
	Shard(docID string, shards int) int
}

// PartitionerFunc adapts a function to the Partitioner interface.
type PartitionerFunc func(docID string, shards int) int

// Shard implements Partitioner.
func (f PartitionerFunc) Shard(docID string, shards int) int { return f(docID, shards) }

// HashPartitioner returns the default placement: FNV-1a over the
// document id, reduced modulo the shard count.
func HashPartitioner() Partitioner {
	return PartitionerFunc(func(docID string, shards int) int {
		h := fnv.New64a()
		h.Write([]byte(docID))
		return int(h.Sum64() % uint64(shards))
	})
}

// ForestOptions configures NewForest and OpenForest. The zero value is a
// single-shard in-memory-defaults forest with hash placement.
type ForestOptions struct {
	// Shards is the partition count. 0 means 1 for NewForest; for
	// OpenForest on an existing directory, 0 adopts the manifest's count
	// and any nonzero disagreement is ErrForestTopology.
	Shards int
	// Partitioner overrides document placement (default HashPartitioner).
	Partitioner Partitioner
	// Params selects the L-Tree shape of every shard (default
	// DefaultParams).
	Params Params
	// WAL tunes each shard's write-ahead log (OpenForest only).
	WAL WALOptions
	// AutoCheckpointBytes/AutoCheckpointRecords, when nonzero, attach the
	// AutoCheckpoint policy to every shard WAL (OpenForest only): a shard
	// checkpoints itself once its live log outgrows either threshold.
	AutoCheckpointBytes   int64
	AutoCheckpointRecords int
}

// normalized fills the option defaults.
func (o ForestOptions) normalized() ForestOptions {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Partitioner == nil {
		o.Partitioner = HashPartitioner()
	}
	if o.Params == (Params{}) {
		o.Params = DefaultParams
	}
	return o
}

// emptyShardXML is the seed document of a fresh shard.
const emptyShardXML = "<" + shardRootTag + "/>"

// NewForest returns an in-memory forest with opt.Shards empty shards.
// Use OpenForest for a durable, WAL-backed forest.
func NewForest(opt ForestOptions) (*Forest, error) {
	opt = opt.normalized()
	f := &Forest{part: opt.Partitioner, docs: make(map[string]*forestDoc)}
	for i := 0; i < opt.Shards; i++ {
		st, err := OpenString(emptyShardXML, opt.Params)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, &forestShard{st: st})
	}
	return f, nil
}

// OpenForest opens (creating if needed) a WAL-backed forest in dir: one
// WAL directory per shard plus a manifest pinning the shard count (see
// internal/storage's forest layout). A fresh directory is initialized
// with opt.Shards shards; an existing one is recovered — every shard
// replays its own log in parallel, one goroutine per shard, so recovery
// takes O(largest shard log) wall-clock — and must be opened with the
// same shard count it was created with (or opt.Shards == 0 to adopt it);
// anything else is ErrForestTopology.
func OpenForest(dir string, opt ForestOptions) (*Forest, error) {
	requested := opt.Shards // 0 stays 0: "adopt the manifest", not "one shard"
	opt = opt.normalized()
	n, err := storage.CheckForestManifest(dir, requested)
	if err != nil {
		return nil, err
	}
	shards := make([]*forestShard, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i], errs[i] = openShard(storage.ForestShardDir(dir, i), opt)
		}(i)
	}
	wg.Wait()
	if err := firstErr(errs...); err != nil {
		for _, sh := range shards {
			if sh != nil && sh.wal != nil {
				sh.wal.Close()
			}
		}
		return nil, err
	}
	f := &Forest{shards: shards, part: opt.Partitioner, docs: make(map[string]*forestDoc)}
	if err := f.rebuildRegistry(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openShard recovers one shard from its WAL directory, seeding an empty
// shard on first boot.
func openShard(dir string, opt ForestOptions) (*forestShard, error) {
	w, err := storage.OpenWAL(dir, opt.WAL)
	if err != nil {
		return nil, err
	}
	// The auto-checkpoint policy is per-open configuration, not logged
	// state: the recovered and the first-boot branch take the same option.
	autoCkpt := AutoCheckpoint(opt.AutoCheckpointBytes, opt.AutoCheckpointRecords)
	st, err := LoadLatest(w, autoCkpt)
	if errors.Is(err, ErrNoVersion) {
		// First boot: seed the synthetic shard root and write its
		// baseline checkpoint.
		st, err = OpenString(emptyShardXML, opt.Params)
		if err == nil {
			err = st.WithWAL(w, autoCkpt)
		}
	}
	if err != nil {
		w.Close()
		return nil, err
	}
	return &forestShard{st: st, wal: w}, nil
}

// rebuildRegistry reconstructs the docID → (shard, root) registry from
// the recovered shard stores: every child of a shard root is a document
// and must carry its id attribute. A child without one means the shard
// holds state this forest layer did not write — fail loudly rather than
// serve a document that can never be addressed.
func (f *Forest) rebuildRegistry() error {
	for si, sh := range f.shards {
		root := sh.st.Root()
		if root.Tag() != shardRootTag {
			return fmt.Errorf("ltree: shard %d root is <%s>, not a forest shard (%s) — this WAL belongs to a plain Store", si, root.Tag(), shardRootTag)
		}
		for _, c := range root.Children() {
			if c.Kind() != ElementNode {
				continue
			}
			id, ok := c.Attr(forestDocAttr)
			if !ok || id == "" {
				return fmt.Errorf("ltree: shard %d holds a <%s> without a document id attribute", si, c.Tag())
			}
			if prev, dup := f.docs[id]; dup {
				return fmt.Errorf("ltree: document %q present in shards %d and %d", id, prev.shard, si)
			}
			f.docs[id] = &forestDoc{shard: si, root: c}
		}
	}
	return nil
}

// Close releases every shard's WAL handle. In-memory forests have
// nothing to release. Writes after Close fail at the shard WAL.
func (f *Forest) Close() error {
	var errs []error
	for _, sh := range f.shards {
		if sh.wal != nil {
			errs = append(errs, sh.wal.Close())
		}
	}
	return firstErr(errs...)
}

// Shards returns the shard count.
func (f *Forest) Shards() int { return len(f.shards) }

// Len returns the number of documents in the forest.
func (f *Forest) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.docs)
}

// Docs returns the document ids in sorted order.
func (f *Forest) Docs() []string {
	f.mu.RLock()
	out := make([]string, 0, len(f.docs))
	for id := range f.docs {
		out = append(out, id)
	}
	f.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ShardFor returns the shard index holding (or that would hold) docID.
func (f *Forest) ShardFor(docID string) int {
	f.mu.RLock()
	if d, ok := f.docs[docID]; ok {
		f.mu.RUnlock()
		return d.shard
	}
	f.mu.RUnlock()
	return f.part.Shard(docID, len(f.shards))
}

// ShardStore exposes shard i's underlying Store — for per-shard
// plumbing like attaching followers or inspecting one shard's WAL
// state. Mutating documents through it bypasses the registry; use the
// Forest surface for writes.
func (f *Forest) ShardStore(i int) *Store { return f.shards[i].st }

// Get returns the root element of the document with the given id.
func (f *Forest) Get(docID string) (*Elem, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	d, ok := f.docs[docID]
	if !ok || d.root == nil {
		return nil, false
	}
	return d.root, true
}

// DocOf maps an element (typically a query result) back to the id of
// the forest document containing it. ok=false for elements not bound to
// any shard of this forest — including the shard roots themselves.
func (f *Forest) DocOf(el *Elem) (string, bool) {
	if el == nil {
		return "", false
	}
	// The parent-pointer walk reads structure a concurrent writer to el's
	// shard may be mutating; hold every shard's read lock (writers hold
	// only their own shard's lock, so ascending acquisition cannot
	// deadlock). Reads of other shards stay unaffected: these are RLocks.
	for _, sh := range f.shards {
		sh.st.mu.RLock()
	}
	defer func() {
		for _, sh := range f.shards {
			sh.st.mu.RUnlock()
		}
	}()
	var docRoot *Elem
	for v := el; v != nil; v = v.Parent() {
		p := v.Parent()
		if p == nil {
			break
		}
		if p.Parent() == nil {
			// p is a tree root; it must be one of our shard roots.
			for _, sh := range f.shards {
				if sh.st.Root() == p {
					docRoot = v
					break
				}
			}
			break
		}
	}
	if docRoot == nil {
		return "", false
	}
	return docRoot.Attr(forestDocAttr)
}

// reserve claims docID for one write, returning the prior entry. A
// concurrent write already holding the claim is ErrDocBusy; the claim
// is released by settle.
func (f *Forest) reserve(docID string) (prev *forestDoc, existed bool, shard int, err error) {
	if docID == "" {
		return nil, false, 0, errors.New("ltree: empty document id")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.docs[docID]
	if ok && d.root == nil {
		return nil, false, 0, ErrDocBusy
	}
	if ok {
		shard = d.shard
	} else {
		shard = f.part.Shard(docID, len(f.shards))
		if shard < 0 || shard >= len(f.shards) {
			return nil, false, 0, fmt.Errorf("ltree: partitioner routed document %q to shard %d of %d", docID, shard, len(f.shards))
		}
	}
	f.docs[docID] = &forestDoc{shard: shard}
	return d, ok, shard, nil
}

// settle resolves a reservation: a successful write installs the new
// root (nil root deletes the entry); a failed replace restores the
// prior entry. A failed write that already destroyed the prior document
// must pass restore=nil — the id then reads as absent, loudly, instead
// of pointing at a detached subtree.
func (f *Forest) settle(docID string, root *Elem, shard int, restore *forestDoc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case root != nil:
		f.docs[docID] = &forestDoc{shard: shard, root: root}
	case restore != nil:
		f.docs[docID] = restore
	default:
		delete(f.docs, docID)
	}
}

// Put parses src as an XML document and inserts it under the given id,
// replacing any existing document with that id in one shard commit.
// Returns the document's root element. Puts of different documents
// proceed concurrently whenever their ids land on different shards;
// two concurrent writes to the same id race loudly (ErrDocBusy).
func (f *Forest) Put(docID, src string) (*Elem, error) {
	frag, err := xmldom.ParseString(src)
	if err != nil {
		return nil, err
	}
	return f.PutSubtree(docID, frag.Root)
}

// PutSubtree is Put for an already-built detached subtree (NewElement /
// ParseXML). The forest takes ownership of the subtree and stamps the
// document id attribute on its root.
func (f *Forest) PutSubtree(docID string, root *Elem) (*Elem, error) {
	if root == nil || root.Kind() != ElementNode {
		return nil, errors.New("ltree: a forest document needs an element root")
	}
	prev, existed, shard, err := f.reserve(docID)
	if err != nil {
		return nil, err
	}
	root.SetAttr(forestDocAttr, docID)
	st := f.shards[shard].st
	err = st.Update(func(b *Batch) error {
		if existed {
			if err := b.Delete(prev.root); err != nil {
				return err
			}
		}
		return b.InsertSubtree(st.Root(), st.Root().NumChildren(), root)
	})
	if err != nil {
		// The replace path may have deleted the old document before the
		// insert failed; either way the id no longer names a live
		// subtree. Drop it rather than resurrect a maybe-detached root.
		f.settle(docID, nil, shard, nil)
		return nil, err
	}
	f.settle(docID, root, shard, nil)
	return root, nil
}

// Delete removes the document with the given id from its shard.
func (f *Forest) Delete(docID string) error {
	f.mu.Lock()
	d, ok := f.docs[docID]
	if !ok {
		f.mu.Unlock()
		return ErrNoDoc
	}
	if d.root == nil {
		f.mu.Unlock()
		return ErrDocBusy
	}
	f.docs[docID] = &forestDoc{shard: d.shard}
	f.mu.Unlock()
	err := f.shards[d.shard].st.Delete(d.root)
	if err != nil {
		f.settle(docID, d.root, d.shard, d)
		return err
	}
	f.settle(docID, nil, d.shard, nil)
	return nil
}

// Update runs fn as one write batch against the document with the given
// id: fn receives the shard's Batch and the document's root element, and
// one index version is committed on the owning shard when it returns.
// Updates to documents on different shards proceed concurrently.
func (f *Forest) Update(docID string, fn func(b *Batch, root *Elem) error) error {
	f.mu.RLock()
	d, ok := f.docs[docID]
	f.mu.RUnlock()
	if !ok || d.root == nil {
		if ok {
			return ErrDocBusy
		}
		return ErrNoDoc
	}
	return f.shards[d.shard].st.Update(func(b *Batch) error {
		return fn(b, d.root)
	})
}

// forestPath rewrites a parsed path for evaluation inside a shard store:
// rooted paths anchor at each *document* root, not the synthetic shard
// root, so "/site//item" means "documents whose root is <site>, their
// //item descendants" across every document of every shard. The rewrite
// prepends one child step matching the shard root — the engine then
// anchors there and the original first step (always a child step; see
// query.Parse) matches the shard root's children, which are exactly the
// document roots. Relative paths need no rewrite: they already search
// every document, and the shard root's own tag never collides with user
// queries (and is filtered from wildcard streams regardless).
func forestPath(p *query.Path) *query.Path {
	if !p.Rooted {
		return p
	}
	steps := make([]query.Step, 0, len(p.Steps)+1)
	steps = append(steps, query.Step{Axis: query.Child, Tag: shardRootTag})
	steps = append(steps, p.Steps...)
	return &query.Path{Rooted: true, Steps: steps}
}

// skipNodeCursor filters one element (the shard root) out of a stream.
// Only wildcard streams can surface it, and at most once, so this is one
// pointer comparison per entry.
type skipNodeCursor struct {
	cur  document.Cursor
	skip *xmldom.Node
}

func (c *skipNodeCursor) Next() (document.Entry, bool) {
	e, ok := c.cur.Next()
	if ok && e.Node == c.skip {
		return c.cur.Next()
	}
	return e, ok
}

func (c *skipNodeCursor) Seek(begin uint64) (document.Entry, bool) {
	e, ok := c.cur.Seek(begin)
	if ok && e.Node == c.skip {
		return c.cur.Next()
	}
	return e, ok
}

// withoutShardRoot wraps a shard-local Results to hide the synthetic
// shard root.
func withoutShardRoot(r *Results, root *Elem) *Results {
	return &Results{cur: &skipNodeCursor{cur: r.cur, skip: root}}
}

// Query evaluates a path expression across every document of every
// shard and returns the matches merged in global begin order — the same
// order ForestTxn.Query streams. It is the forest analogue of
// Store.Query, and it is where the scatter actually runs in parallel:
// one goroutine per shard drains that shard's pipeline against a
// borrowed current version, then the per-shard (already begin-sorted)
// match runs are merged slice-to-slice, with no per-entry cursor
// dispatch. On N cores the pipeline work divides by min(N, shards), so
// the one-shot drain gets faster with shards rather than paying the
// streaming merge's per-entry tax. Open a ForestTxn (View,
// SnapshotView) when you need mutually consistent multi-read snapshots
// or lazy/Seek-driven consumption instead.
func (f *Forest) Query(expr string) ([]*Elem, error) {
	p, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	p = forestPath(p)
	return f.scatterCollect(func(i int) *Results {
		sh := f.shards[i]
		tx := &Txn{s: sh.st, ver: sh.st.vers.Current()}
		return withoutShardRoot(tx.resultsFor(p), sh.st.Root())
	}), nil
}

// Elements returns every element with the given tag ("*" = all, shard
// roots excluded) across the forest, merged in global begin order. Like
// Query it scatters one collecting goroutine per shard.
func (f *Forest) Elements(tag string) []*Elem {
	return f.scatterCollect(func(i int) *Results {
		sh := f.shards[i]
		tx := &Txn{s: sh.st, ver: sh.st.vers.Current()}
		return withoutShardRoot(tx.Stream(tag), sh.st.Root())
	})
}

// scatterCollect materializes one Results per shard in parallel and
// merges the sorted runs. build is called once per shard index, from
// that shard's goroutine; each built Results must only touch immutable
// snapshot state (borrowed versions), which is what keeps the fan-out
// lock-free.
func (f *Forest) scatterCollect(build func(i int) *Results) []*Elem {
	parts := make([][]document.Entry, len(f.shards))
	var wg sync.WaitGroup
	for i := range f.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cur := build(i).cur
			for e, ok := cur.Next(); ok; e, ok = cur.Next() {
				parts[i] = append(parts[i], e)
			}
		}(i)
	}
	wg.Wait()
	return mergeEntryParts(parts)
}

// mergeEntryParts merges begin-sorted entry runs into one element slice
// in (begin, part) order — the materialized counterpart of document.Merge,
// used where every entry is already in memory: a k-wide min scan per
// output with no interface calls, so the merge costs a few ns per
// element instead of a cursor dispatch chain.
func mergeEntryParts(parts [][]document.Entry) []*Elem {
	if len(parts) == 1 {
		out := make([]*Elem, len(parts[0]))
		for i, e := range parts[0] {
			out[i] = e.Node
		}
		return out
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]*Elem, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		min := -1
		for b := range parts {
			if idx[b] >= len(parts[b]) {
				continue
			}
			// Strict < keeps the earlier part on ties: same (begin, branch)
			// order as the streaming merge.
			if min < 0 || parts[b][idx[b]].Label.Begin < parts[min][idx[min]].Label.Begin {
				min = b
			}
		}
		out = append(out, parts[min][idx[min]].Node)
		idx[min]++
	}
	return out
}

// Count returns the forest-wide posting count for a tag ("*" = every
// element, shard roots excluded).
func (f *Forest) Count(tag string) int {
	total := 0
	for _, sh := range f.shards {
		tx := &Txn{s: sh.st, ver: sh.st.vers.Current()}
		total += tx.Count(tag)
		if tag == "*" || tag == shardRootTag {
			total-- // the synthetic shard root is not a forest element
		}
	}
	return total
}

// Label returns an element's (begin, end) label in its shard's label
// space. Labels from different shards are not mutually comparable.
func (f *Forest) Label(el *Elem) (Label, error) {
	for _, sh := range f.shards {
		if lab, err := sh.st.Label(el); err == nil {
			return lab, nil
		}
	}
	return Label{}, ErrUnbound
}

// View runs fn inside a forest read transaction: one pinned part per
// shard, all captured before fn starts, so every read through the
// composite Txn observes one index version per shard regardless of
// concurrent commits. The transaction is released when fn returns.
func (f *Forest) View(fn func(*Txn) error) error {
	tx := f.SnapshotView()
	defer tx.Close()
	return fn(tx)
}

// SnapshotView opens a forest read transaction and returns the handle;
// the caller owns its lifetime and must Close it. The returned Txn is a
// composite (see Txn): queries fan out to each shard's pinned version
// and stream through the k-way merge, so consuming a Results costs one
// buffered entry per shard and Seek pushes down into every shard's
// chunk fences.
//
// The per-shard versions are captured one after another, not atomically:
// reads within one shard are snapshot-consistent, and cross-shard
// consistency is exactly cross-document consistency — no forest write
// spans two shards, so there is no cross-shard state to tear.
func (f *Forest) SnapshotView() *Txn {
	txs := make([]*Txn, len(f.shards))
	roots := make([]*Elem, len(f.shards))
	for i, sh := range f.shards {
		txs[i] = sh.st.SnapshotView()
		roots[i] = sh.st.Root()
	}
	return &Txn{parts: txs, roots: roots}
}

// SnapshotAt opens a forest read transaction pinned to a composite
// version number. Forest versions are per-shard; the composite version
// (IndexVersion, Txn.Version) is their sum, and only the *current*
// composite is addressable by number — pinning an older one would need
// a version vector, which a uint64 cannot carry. SnapshotAt therefore
// succeeds exactly when version is the current composite (the common
// Reader idiom "read IndexVersion, then pin it" works unless a write
// slipped between the two calls); anything else is ErrVersionRetired.
// For historical per-shard snapshots use ShardStore(i).SnapshotAt.
func (f *Forest) SnapshotAt(version uint64) (*Txn, error) {
	tx := f.SnapshotView()
	if tx.Version() != version {
		tx.Close()
		return nil, fmt.Errorf("ltree: forest composite version %d is not current: %w", version, ErrVersionRetired)
	}
	return tx, nil
}

// IndexVersion returns the forest's composite version: the sum of every
// shard's published index version. It grows by one per committed write
// batch anywhere in the forest — two reads seeing the same composite
// version saw the same forest-wide index state.
func (f *Forest) IndexVersion() uint64 {
	var sum uint64
	for _, sh := range f.shards {
		sum += sh.st.IndexVersion()
	}
	return sum
}

// IsAncestor decides ancestry purely from labels. Elements living in
// different shards are never related — no forest document spans shards.
func (f *Forest) IsAncestor(a, d *Elem) (bool, error) {
	tx := f.SnapshotView()
	defer tx.Close()
	return tx.IsAncestor(a, d)
}

// Compare orders two elements by the forest's deterministic global
// order — (begin, shard), the order merged query results stream in.
func (f *Forest) Compare(a, b *Elem) (int, error) {
	tx := f.SnapshotView()
	defer tx.Close()
	return tx.Compare(a, b)
}

// ForestTxn is the forest composite read transaction. It has been
// unified with Txn — a composite Txn carries one pinned part per shard
// — so forest and store read paths share one type and one Reader
// surface; the alias keeps forest call sites readable.
type ForestTxn = Txn

// ForestStats aggregates the per-shard engine counters.
type ForestStats struct {
	Shards int
	Docs   int
	Shard  []ShardStats
}

// ShardStats is one shard's slice of the aggregate.
type ShardStats struct {
	// Docs is the number of forest documents placed on this shard.
	Docs int
	// Seq is the shard WAL's last appended sequence number (0 for
	// in-memory forests).
	Seq uint64
	// IndexVersion is the shard's published index version.
	IndexVersion uint64
	// TxnOpen / TxnRetired are the shard's read-transaction pin
	// accounting (Store.TxnStats).
	TxnOpen    int
	TxnRetired int
	// Counters are the shard's accumulated L-Tree maintenance counters.
	Counters Counters
}

// Stats returns the forest-wide aggregate plus the per-shard breakdown.
func (f *Forest) Stats() ForestStats {
	out := ForestStats{Shards: len(f.shards), Shard: make([]ShardStats, len(f.shards))}
	f.mu.RLock()
	out.Docs = len(f.docs)
	perShard := make([]int, len(f.shards))
	for _, d := range f.docs {
		perShard[d.shard]++
	}
	f.mu.RUnlock()
	for i, sh := range f.shards {
		open, retired := sh.st.TxnStats()
		s := ShardStats{
			Docs:         perShard[i],
			IndexVersion: sh.st.IndexVersion(),
			TxnOpen:      open,
			TxnRetired:   retired,
			Counters:     sh.st.Stats(),
		}
		if sh.wal != nil {
			s.Seq = sh.wal.Seq()
		}
		out.Shard[i] = s
	}
	return out
}

// Checkpoint snapshots every shard into its WAL and truncates the logs,
// shards in parallel. Each shard's checkpoint is its own recovery
// baseline; there is no cross-shard barrier to coordinate because no
// forest write spans shards.
func (f *Forest) Checkpoint() error {
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i, sh := range f.shards {
		wg.Add(1)
		go func(i int, st *Store) {
			defer wg.Done()
			_, errs[i] = st.Checkpoint()
		}(i, sh.st)
	}
	wg.Wait()
	return firstErr(errs...)
}

// Check runs every shard's full invariant suite plus the forest's own:
// the registry and the shard stores must agree document-for-document.
func (f *Forest) Check() error {
	for i, sh := range f.shards {
		if err := sh.st.Check(); err != nil {
			return fmt.Errorf("ltree: shard %d: %w", i, err)
		}
	}
	// The registry/structure cross-check reads parent pointers and child
	// lists; hold every shard's read lock (same discipline as DocOf).
	for _, sh := range f.shards {
		sh.st.mu.RLock()
	}
	defer func() {
		for _, sh := range f.shards {
			sh.st.mu.RUnlock()
		}
	}()
	f.mu.RLock()
	defer f.mu.RUnlock()
	live := 0
	for id, d := range f.docs {
		if d.root == nil {
			continue // write in flight
		}
		live++
		if d.shard < 0 || d.shard >= len(f.shards) {
			return fmt.Errorf("ltree: document %q registered on shard %d of %d", id, d.shard, len(f.shards))
		}
		if d.root.Parent() != f.shards[d.shard].st.Root() {
			return fmt.Errorf("ltree: document %q is not a child of its shard %d root", id, d.shard)
		}
		if got, _ := d.root.Attr(forestDocAttr); got != id {
			return fmt.Errorf("ltree: document %q carries id attribute %q", id, got)
		}
	}
	total := 0
	for _, sh := range f.shards {
		for _, c := range sh.st.Root().Children() {
			if c.Kind() == ElementNode {
				total++
			}
		}
	}
	if total != live {
		return fmt.Errorf("ltree: shards hold %d documents, registry holds %d", total, live)
	}
	return nil
}
