package ltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/query"
	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// Store is the high-level entry point: a labeled XML document behind a
// concurrency-first engine split into a read path and a write path.
//
// Read path: queries run against an immutable tag-index version published
// through an atomic pointer. Readers share an RLock only to keep the DOM
// and label state quiescent — they never build or patch an index, never
// upgrade to the write lock, and proceed in parallel with each other.
// Elements is served from the published index alone and takes no lock at
// all.
//
// Write path: updates maintain the labels through the L-Tree (the paper's
// cheap-relabeling guarantee), collect the index-relevant effects as a
// change batch, and at commit derive the next index version copy-on-write
// — only the posting lists the batch touched are copied (see
// internal/index) — log it when a WAL is attached, and only then publish
// it atomically. Use Update to batch several mutations into one commit
// and one published version.
type Store struct {
	mu  sync.RWMutex // many readers xor one writer over doc
	doc *document.Doc

	// vers is the published-version registry: the current index version is
	// read lock-free, and read transactions (View/SnapshotView) pin the
	// version they captured so it stays attachable until they end. See
	// txn.go for the read-transaction surface.
	vers *index.Retained

	// wal, when non-nil, receives every committed batch as one appended
	// log record (see WithWAL); commits are then durable without
	// rewriting a snapshot.
	wal storage.WALBackend

	// fenced, once set, refuses every later write (ErrFenced): a commit
	// failed after it had mutated the document, so the document holds
	// state that is neither published nor durable. Reads keep serving the
	// last published version; reopening the store is the only repair.
	fenced error

	// walPolicy, when enabled, checkpoints automatically at commit time
	// once the live log outgrows its thresholds (see AutoCheckpoint).
	walPolicy walPolicy

	// bump is the watch broadcast: closed and replaced under watchMu on
	// every published index version, so any number of watchers can wait
	// for "something newer than what I last saw" without polling
	// (watch.go). Guarded by its own mutex — publishers hold the write
	// lock, watchers must not.
	watchMu sync.Mutex
	bump    chan struct{}
}

// walPolicy is the auto-checkpoint configuration attached by WithWAL or
// LoadLatest options. The zero value disables auto-checkpointing.
type walPolicy struct {
	maxBytes   int64
	maxRecords int
}

func (p walPolicy) enabled() bool { return p.maxBytes > 0 || p.maxRecords > 0 }

// exceeded reports whether a live log of the given size trips the policy.
func (p walPolicy) exceeded(bytes int64, records int) bool {
	return (p.maxBytes > 0 && bytes >= p.maxBytes) ||
		(p.maxRecords > 0 && records >= p.maxRecords)
}

// WALOption configures the store side of a WAL attachment (WithWAL, or
// LoadLatest recovering one).
type WALOption func(*walPolicy)

// newWALPolicy folds the options into the policy a store attached to w
// will run, rejecting a policy the backend cannot serve.
func newWALPolicy(w WALBackend, opts []WALOption) (walPolicy, error) {
	var pol walPolicy
	for _, opt := range opts {
		opt(&pol)
	}
	if pol.enabled() {
		if _, ok := w.(liveLogger); !ok {
			return pol, errors.New("ltree: AutoCheckpoint needs a backend that reports its live log size (LiveLog)")
		}
	}
	return pol, nil
}

// AutoCheckpoint makes the store checkpoint automatically: after a commit
// is appended, if the live log (records since the last checkpoint) has
// reached maxBytes bytes or maxRecords records, the commit triggers a
// Checkpoint — snapshotting the store and truncating the log — before
// returning. Either threshold can be 0 to disable it; auto-checkpointing
// is off entirely by default. The backend must report its live log size
// (the built-in WAL does); WithWAL and LoadLatest reject the option
// otherwise. The policy is per-open configuration, not logged state:
// pass it again to LoadLatest when recovering.
func AutoCheckpoint(maxBytes int64, maxRecords int) WALOption {
	return func(p *walPolicy) {
		p.maxBytes = maxBytes
		p.maxRecords = maxRecords
	}
}

// liveLogger is the optional capability auto-checkpointing needs from a
// WAL backend: the size of the log appended since the last checkpoint.
type liveLogger interface {
	LiveLog() (bytes int64, records int)
}

// newStore wires a labeled document into the engine: change tracking on,
// first index version built and published.
func newStore(doc *document.Doc) *Store {
	s := &Store{doc: doc, bump: make(chan struct{})}
	doc.TrackChanges()
	s.vers = index.NewRetained(index.Build(doc))
	doc.TakeChanges() // the build reflects everything up to here
	return s
}

// publish registers the next index version and wakes every watcher. It
// is the single seam all publish sites share — live commits,
// checkpoints, compaction, and shipped-batch apply — so change feeds
// observe every version no matter which path produced it.
func (s *Store) publish(ix *index.Index) uint64 {
	n := s.vers.Publish(ix)
	s.watchMu.Lock()
	close(s.bump)
	s.bump = make(chan struct{})
	s.watchMu.Unlock()
	return n
}

// bumpChan returns the current broadcast channel; it is closed as soon
// as a version newer than the caller's last read publishes.
func (s *Store) bumpChan() <-chan struct{} {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return s.bump
}

// Open parses and labels an XML document.
func Open(r io.Reader, p Params) (*Store, error) {
	doc, err := document.Parse(r, p)
	if err != nil {
		return nil, err
	}
	return newStore(doc), nil
}

// OpenString is Open over a string.
func OpenString(src string, p Params) (*Store, error) {
	return Open(strings.NewReader(src), p)
}

// FromDocument wraps an already-labeled document.
func FromDocument(doc *Document) *Store {
	return newStore(doc)
}

// Document exposes the underlying labeled document. Mutating it directly
// bypasses the engine: the caller must hold off every other goroutine and
// call Refresh afterwards so the published index resyncs.
func (s *Store) Document() *Document { return s.doc }

// Root returns the document's root element.
func (s *Store) Root() *Elem { return s.doc.X.Root }

// IndexVersion returns the published tag-index version number. It grows
// by one per committed write batch — two queries seeing the same version
// saw the same index. To make a whole sequence of reads observe one
// version, open a read transaction instead (View, SnapshotView).
func (s *Store) IndexVersion() uint64 { return s.vers.Current().N }

// commitLocked folds the write batch recorded since the last commit into
// the next index version and makes it durable before it is visible: with
// a WAL attached, the batch's logical ops are appended as one fsync'd log
// record stamped with that version's root hash, and only then is the
// version published. An error means the batch did not commit — it is
// neither visible nor logged — and the store is fenced. After a published
// commit the auto-checkpoint policy may run; its failure fences the store
// for the next write but does not undo the commit. Caller holds the write
// lock.
func (s *Store) commitLocked() error {
	next, err := s.nextIndexLocked()
	if err != nil {
		return s.fence(err)
	}
	if err := s.appendOpsLocked(s.doc.TakeOps(), next); err != nil {
		return s.fence(err)
	}
	if next != nil {
		s.publish(next)
	}
	if err := s.maybeAutoCheckpointLocked(); err != nil {
		s.fence(err)
	}
	return nil
}

// fence refuses every later write, keeping the first cause, and returns
// the ErrFenced error those writes will see.
func (s *Store) fence(err error) error {
	if s.fenced == nil {
		s.fenced = err
	}
	return s.fencedErr()
}

// fencedErr is the error every write returns on a fenced store: ErrFenced
// around the first cause, or nil. Caller holds the lock.
func (s *Store) fencedErr() error {
	if s.fenced == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrFenced, s.fenced)
}

// nextIndexLocked derives the next index version from the pending change
// batch without publishing it; nil means nothing changed. A batch the
// incremental patch rejects — an indexed entry unbound with no removal
// record — contradicts the document: an engine bug the caller fences on.
func (s *Store) nextIndexLocked() (*index.Index, error) {
	ch := s.doc.TakeChanges()
	if ch.Empty() {
		return nil, nil
	}
	next, err := s.vers.Current().Ix.Apply(s.doc, ch)
	if err != nil {
		return nil, fmt.Errorf("ltree: index patch rejected the change batch: %w", err)
	}
	return next, nil
}

// rootOf returns the root hash of a derived version, or of the published
// one when next is nil (the batch changed no index entry).
func (s *Store) rootOf(next *index.Index) [32]byte {
	if next == nil {
		next = s.vers.Current().Ix
	}
	return [32]byte(next.RootHash())
}

// maybeAutoCheckpointLocked runs the auto-checkpoint policy after a
// logged commit: when the live log has outgrown the configured budget,
// checkpoint now so recovery time stays bounded without the caller
// scheduling anything.
func (s *Store) maybeAutoCheckpointLocked() error {
	if s.wal == nil || !s.walPolicy.enabled() {
		return nil
	}
	ll, ok := s.wal.(liveLogger)
	if !ok {
		return nil // newWALPolicy rejects this pairing; defensive
	}
	bytes, records := ll.LiveLog()
	if !s.walPolicy.exceeded(bytes, records) {
		return nil
	}
	_, err := s.checkpointLocked()
	return err
}

// appendOpsLocked logs one batch to the attached WAL (no-op without one)
// as a single record, stamped with the root hash of next — the version
// the batch produces, not yet published — or of the current version when
// the batch changed no index entry. Followers compare the stamp against
// their own recomputed root after applying the batch, turning silent
// divergence into a loud ErrReplicaDiverged at the acking seam; replay
// skips it.
func (s *Store) appendOpsLocked(ops []storage.Op, next *index.Index) error {
	if s.wal == nil || len(ops) == 0 {
		return nil
	}
	ops = append(ops, storage.Op{Kind: storage.OpStamp, Root: s.rootOf(next)})
	payload, err := storage.EncodeOps(ops)
	if err != nil {
		return fmt.Errorf("ltree: wal encode: %w", err)
	}
	if _, err := s.wal.AppendBatch(payload); err != nil {
		return fmt.Errorf("ltree: wal append: %w", err)
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Query evaluates a path expression ("/site//item/name", "book//title",
// "//*") with label-based structural joins and returns matches in
// document order. It is the compatibility layer over the transactional
// read path: a single-shot View that pins one index version, streams the
// lazy pipeline, and collects. For mutually consistent multi-read
// snapshots or streaming results without materializing, use View /
// SnapshotView and Txn.Query directly (txn.go).
//
// Prefer the transactional surface for new code: this eager wrapper is
// kept for compatibility and materializes every match up front, where
// Txn.Query streams lazily and composes with the rest of a pinned read.
func (s *Store) Query(expr string) ([]*Elem, error) {
	return s.evalPath(expr, func(tx *Txn, p *query.Path) []*Elem {
		return tx.resultsFor(p).Collect()
	})
}

// QueryNav evaluates the same path by plain navigation (no labels) — the
// reference evaluator, useful for cross-checking and benchmarks. Like
// Query it is a single-shot View wrapper; see Txn.QueryNav for the
// consistency caveat (navigation reads the live DOM, not the pinned
// snapshot). Like Query, prefer the transactional surface for new code.
func (s *Store) QueryNav(expr string) ([]*Elem, error) {
	return s.evalPath(expr, func(tx *Txn, p *query.Path) []*Elem {
		return tx.navFor(p)
	})
}

// evalPath is the one parse/eval funnel both query entry points share:
// parse once, evaluate inside a single-shot read transaction. The
// transaction borrows the current version instead of pinning it —
// holding the immutable Version keeps the index alive on its own, and
// registry accounting only matters for handles that must stay
// attachable by number (SnapshotAt) — so the hottest read path costs a
// lock-free load, not two global mutex acquisitions.
func (s *Store) evalPath(expr string, eval func(*Txn, *query.Path) []*Elem) ([]*Elem, error) {
	p, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	tx := &Txn{s: s, ver: s.vers.Current()}
	return eval(tx, p), nil
}

// Label returns the node's current (begin, end) label.
func (s *Store) Label(n *Elem) (Label, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.doc.Label(n)
}

// IsAncestor decides ancestry purely from labels (the paper's containment
// test).
func (s *Store) IsAncestor(a, d *Elem) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.doc.IsAncestor(a, d)
}

// Compare orders two nodes by document order using labels only.
func (s *Store) Compare(a, b *Elem) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.doc.Compare(a, b)
}

// Elements returns the elements with the given tag ("*" = all) in
// document order, streamed straight off the published index's chunks —
// no lock taken, no posting list materialized. Like Query, it is a
// single-shot read over a borrowed current version; Txn.Elements is the
// snapshot-pinned equivalent.
func (s *Store) Elements(tag string) []*Elem {
	tx := Txn{s: s, ver: s.vers.Current()}
	return tx.Elements(tag)
}

// Update runs fn as one write batch: every mutation made through the
// Batch lands in the same change set, and a single index version is
// derived, logged and published when fn returns. Batching amortizes the
// copy-on-write patching across all the mutations. Update holds the
// write lock for the duration of fn.
//
// A Batch is not a transaction: an error from fn rolls nothing back —
// the commit still logs and publishes whatever fn changed, keeping the
// index and the log in sync with the document. Callers needing rollback
// should Snapshot (or, on a WAL-backed store, Checkpoint) first and
// Restore (or LoadAt that checkpoint) on failure. A commit that fails
// fences the store: see ErrFenced.
func (s *Store) Update(fn func(*Batch) error) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fencedErr(); err != nil {
		return err
	}
	// Deferred so a panic in fn still commits: the index (and WAL) must
	// reflect whatever fn mutated before the panic unwinds past us.
	defer func() {
		err = firstErr(err, s.commitLocked())
	}()
	return fn(&Batch{doc: s.doc})
}

// Batch is the write handle passed to Update. It is only valid during
// the Update call and must not escape it.
type Batch struct {
	doc *document.Doc
}

// InsertElement creates and labels an empty element as parent's idx-th
// child.
func (tx *Batch) InsertElement(parent *Elem, idx int, tag string, attrs ...Attr) (*Elem, error) {
	return tx.doc.InsertElement(parent, idx, tag, attrs...)
}

// InsertText creates and labels a text node as parent's idx-th child.
func (tx *Batch) InsertText(parent *Elem, idx int, data string) (*Elem, error) {
	return tx.doc.InsertText(parent, idx, data)
}

// InsertSubtree splices a detached subtree as parent's idx-th child with
// one bulk run insertion (paper §4.1).
func (tx *Batch) InsertSubtree(parent *Elem, idx int, sub *Elem) error {
	return tx.doc.InsertSubtree(parent, idx, sub)
}

// InsertXML parses an XML fragment and splices it as parent's idx-th
// child in one bulk insertion.
func (tx *Batch) InsertXML(parent *Elem, idx int, fragment string) (*Elem, error) {
	frag, err := xmldom.ParseString(fragment)
	if err != nil {
		return nil, err
	}
	if err := tx.doc.InsertSubtree(parent, idx, frag.Root); err != nil {
		return nil, err
	}
	return frag.Root, nil
}

// Delete detaches a subtree; its labels become tombstones and nothing is
// relabeled (paper §2.3).
func (tx *Batch) Delete(n *Elem) error { return tx.doc.DeleteSubtree(n) }

// Move relocates a subtree to become parent's idx-th child.
func (tx *Batch) Move(n, parent *Elem, idx int) error { return tx.doc.Move(n, parent, idx) }

// InsertElement creates and labels an empty element as parent's idx-th
// child, as a one-op Update.
func (s *Store) InsertElement(parent *Elem, idx int, tag string, attrs ...Attr) (el *Elem, err error) {
	err = s.Update(func(tx *Batch) (err error) {
		el, err = tx.InsertElement(parent, idx, tag, attrs...)
		return err
	})
	return el, err
}

// InsertText creates and labels a text node as parent's idx-th child, as
// a one-op Update.
func (s *Store) InsertText(parent *Elem, idx int, data string) (txt *Elem, err error) {
	err = s.Update(func(tx *Batch) (err error) {
		txt, err = tx.InsertText(parent, idx, data)
		return err
	})
	return txt, err
}

// InsertSubtree splices a detached subtree (built with NewElement/NewText
// or parsed via ParseXML) as parent's idx-th child, labeling all of its
// tags with one bulk run insertion (paper §4.1).
func (s *Store) InsertSubtree(parent *Elem, idx int, sub *Elem) error {
	return s.Update(func(tx *Batch) error { return tx.InsertSubtree(parent, idx, sub) })
}

// InsertXML parses an XML fragment and splices it as parent's idx-th
// child in one bulk insertion. The fragment is parsed before the write
// lock is taken.
func (s *Store) InsertXML(parent *Elem, idx int, fragment string) (*Elem, error) {
	frag, err := xmldom.ParseString(fragment)
	if err != nil {
		return nil, err
	}
	if err := s.InsertSubtree(parent, idx, frag.Root); err != nil {
		return nil, err
	}
	return frag.Root, nil
}

// Delete detaches a subtree; its labels become tombstones and nothing is
// relabeled (paper §2.3).
func (s *Store) Delete(n *Elem) error {
	return s.Update(func(tx *Batch) error { return tx.Delete(n) })
}

// Move relocates a subtree to become parent's idx-th child, preserving
// node identities: the old labels become tombstones and the subtree is
// relabeled at the target with one bulk run.
func (s *Store) Move(n, parent *Elem, idx int) error {
	return s.Update(func(tx *Batch) error { return tx.Move(n, parent, idx) })
}

// Refresh resyncs the published index after direct mutations of the
// underlying Document, committing them exactly like a batch (mutations
// made through the Document's methods are op-logged, so on a WAL-backed
// store Refresh persists them too). It is a no-op when nothing changed.
// Only raw DOM edits below the document layer (SetData, SetAttr, or
// xmldom surgery) are invisible to both the change tracker and the op
// log — those need a Checkpoint to become durable. Queries stay correct
// in the meantime: a raw SetAttr bumps the document root's attribute
// generation, so chunk summaries built before it stop filtering (stale
// summaries would otherwise falsely prove absence) until the next
// commit or Refresh rebuilds them.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fencedErr(); err != nil {
		return err
	}
	return s.commitLocked()
}

// Snapshot serializes the store — DOM plus exact label state, snapshot
// format v2 — so that Restore brings it back with bit-identical labels
// (no relabeling on restart; the tree structure is implicit in the
// labels, paper §4.2). The stream is stamped with the published index's
// root hash so restore and backup verification are a hash compare, not
// a byte compare; the stamp is deterministic, so two stores in the same
// state still snapshot byte-identically. The one case left unstamped is
// uncommitted direct Document() mutations — the published index no
// longer describes the document, and an honest restore would flag the
// stamp as divergence. A fenced store refuses to snapshot (ErrFenced):
// its document holds a batch that never committed.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshotLocked(w)
}

// snapshotLocked is Snapshot's body for callers already holding a lock.
func (s *Store) snapshotLocked(w io.Writer) error {
	if err := s.fencedErr(); err != nil {
		return err // the document holds a batch that never committed
	}
	if s.doc.ChangesPending() {
		return s.doc.Snapshot(w)
	}
	return s.doc.SnapshotStamped(w, [32]byte(s.vers.Current().Ix.RootHash()))
}

// RootHash returns the content hash of the published index version: a
// commutative multiset digest over every (tag, label, level) entry, so
// two stores holding the same logical index report the same hash no
// matter how their chunks happen to be partitioned or how the state was
// reached (live commits, replay, snapshot restore). Equal hashes mean
// equal index content; see DESIGN.md §10.
func (s *Store) RootHash() Hash { return s.vers.Current().Ix.RootHash() }

// Restore reconstructs a Store from a Snapshot stream. A stream that is
// not a snapshot (no LTSNAP magic) fails with storage.ErrCorrupt; one
// whose stamped index root does not match the restored document fails
// with ErrReplicaDiverged.
func Restore(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return restoreStore(data)
}

// restoreStore is the one way snapshot bytes become a Store — a Snapshot
// stream, a WAL or blob-tier checkpoint, a follower bootstrap: decode the
// document, build and publish its index, and check that index against
// the root hash the writer stamped.
func restoreStore(data []byte) (*Store, error) {
	doc, err := document.Restore(data)
	if err != nil {
		return nil, err
	}
	s := newStore(doc)
	if err := s.verifyRestoredRoot(); err != nil {
		return nil, err
	}
	return s, nil
}

// verifyRestoredRoot compares the index root hash a restore snapshot was
// stamped with against the index just built from the restored document.
// A mismatch means the snapshot bytes don't describe the state the
// writer thought it saved — bit rot, a torn copy a CRC missed, or a
// labeling bug — and surfaces as ErrReplicaDiverged instead of a store
// that silently answers queries from corrupt state. Unstamped (pre-hash)
// snapshots pass vacuously.
func (s *Store) verifyRestoredRoot() error {
	want, ok := s.doc.RestoredIndexRoot()
	if !ok {
		return nil
	}
	if got := s.vers.Current().Ix.RootHash(); got != index.Hash(want) {
		return fmt.Errorf("ltree: snapshot stamped index root %x, restored document indexes to %x: %w",
			want, got, ErrReplicaDiverged)
	}
	return nil
}

// WALBackend is the persistence backend: commits append one framed,
// CRC-checked, fsync'd record per batch to a write-ahead log; a
// checkpoint writes a snapshot and truncates the log; its versions are
// its checkpoints. See DESIGN.md §6.
type WALBackend = storage.WALBackend

// WALOptions tunes a WAL backend (group-commit sync cadence).
type WALOptions = storage.WALOptions

// NewWALBackend opens (creating if needed) a write-ahead log in dir. A
// torn or corrupt log tail left by a crash is detected and truncated on
// open. Recover a store from it with LoadLatest; attach it to a fresh
// store with WithWAL.
func NewWALBackend(dir string, opt WALOptions) (WALBackend, error) {
	return storage.OpenWAL(dir, opt)
}

// errStopReplay is a sentinel used to probe a WAL for appended batches.
var errStopReplay = errors.New("ltree: stop replay")

// WithWAL attaches an empty WAL backend to the store and switches it to
// incremental persistence: every committed batch is appended to the log
// as one record of logical ops, and Checkpoint writes a snapshot and
// truncates the log. The attach writes the baseline checkpoint (the
// current document state) so recovery always has a snapshot to replay
// onto. A WAL that already holds history belongs to some other store —
// recover it with LoadLatest instead; attaching it here is an error.
//
// Once attached, mutate through the Store/Batch API (or through the
// Document's methods followed by Refresh, which commits them). Only raw
// DOM edits below the document layer (SetData and friends) escape the op
// log; those need a Checkpoint to become durable.
//
// Options tune the attachment; see AutoCheckpoint for the size/record
// policy that keeps the log truncated without manual Checkpoint calls.
func (s *Store) WithWAL(w WALBackend, opts ...WALOption) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return errors.New("ltree: store already has a WAL attached")
	}
	pol, err := newWALPolicy(w, opts)
	if err != nil {
		return err
	}
	if _, _, err := w.Latest(); err == nil {
		return errors.New("ltree: WAL already holds a checkpoint; recover it with LoadLatest")
	} else if !errors.Is(err, ErrNoVersion) {
		return err
	}
	hasBatches := false
	if err := w.ReplaySince(0, func(uint64, []byte) error {
		hasBatches = true
		return errStopReplay
	}); err != nil && !errors.Is(err, errStopReplay) {
		return err
	}
	if hasBatches {
		return errors.New("ltree: WAL already holds log records; recover it with LoadLatest")
	}
	var buf bytes.Buffer
	if err := s.snapshotLocked(&buf); err != nil {
		return err
	}
	if _, err := w.Checkpoint(buf.Bytes()); err != nil {
		return err
	}
	// Only now that the baseline is durable: a failed attach must not
	// leave op recording (and its per-mutation path/label bookkeeping)
	// permanently on for a store with no WAL.
	s.doc.TrackOps()
	s.wal = w
	s.walPolicy = pol
	return nil
}

// Checkpoint snapshots the store into its WAL and truncates the log: the
// recovery path becomes "this snapshot, no replay" until further commits
// append to the fresh log. Returns the checkpoint's version. Commits are
// O(batch); this is the one deliberately O(document) operation, so run it
// on whatever cadence bounds your recovery time. A failed Checkpoint
// fences the store like a failed commit (ErrFenced).
func (s *Store) Checkpoint() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint's body; the auto-checkpoint policy
// calls it from inside an already-locked commit. It follows the commit
// order: derive, write the checkpoint, then publish.
func (s *Store) checkpointLocked() (uint64, error) {
	if s.wal == nil {
		return 0, errors.New("ltree: no WAL attached (WithWAL, or LoadLatest on a WAL backend)")
	}
	if err := s.fencedErr(); err != nil {
		return 0, err
	}
	// Fold any uncommitted state (direct Document() mutations since the
	// last commit) into this checkpoint: derive the next index and discard
	// the pending ops — the snapshot below covers them, and appending
	// them after it would replay them twice.
	next, err := s.nextIndexLocked()
	if err != nil {
		return 0, s.fence(err)
	}
	s.doc.TakeOps()
	var buf bytes.Buffer
	// The derived version describes the document exactly — stamp the
	// checkpoint with its root hash. Restore verifies the rebuilt index
	// against it, and the blob tier ships it in manifests for
	// hash-compare backup verification.
	if err := s.doc.SnapshotStamped(&buf, s.rootOf(next)); err != nil {
		return 0, s.fence(err)
	}
	v, err := s.wal.Checkpoint(buf.Bytes())
	if err != nil {
		return 0, s.fence(err)
	}
	if next != nil {
		s.publish(next)
	}
	return v, nil
}

// applyShippedLocked applies one durable WAL batch payload — recovery
// replay and log-shipping followers share this path. The ops decode and
// replay through the normal mutation paths (document.ApplyPayload
// verifies the recorded labels bit-for-bit), then the index advances
// exactly as a live commit would — one version per batch, patched
// copy-on-write from the change set the replay produced. A batch
// containing a compaction rebuilds the index outright, as Compact does.
// When the batch carries the writer's root-hash stamp, the recomputed
// index root must match it — the O(changed-chunks) integrity check
// that replaces the test-only full-fingerprint oracle in production.
// Caller holds the write lock.
func (s *Store) applyShippedLocked(payload []byte) error {
	info, err := s.doc.ApplyPayload(payload)
	if err != nil {
		return err
	}
	s.doc.TakeOps() // replay records nothing; drain defensively
	if info.Compacted {
		s.doc.TakeChanges()
		s.publish(index.Build(s.doc))
	} else if next, err := s.nextIndexLocked(); err != nil {
		return err
	} else if next != nil {
		s.publish(next)
	}
	if info.HasRoot {
		if got := s.vers.Current().Ix.RootHash(); got != index.Hash(info.Root) {
			return fmt.Errorf("ltree: batch stamped root %x, replica recomputed %x: %w",
				info.Root, got, ErrReplicaDiverged)
		}
	}
	return nil
}

// replayTail applies the durable batches that replay streams after since
// — up to and including upTo — onto s, and returns the sequence number
// of the last batch applied. It is the one replay loop recovery, LoadAt
// and the follower drains share: every batch goes through
// applyShippedLocked under the write lock, so labels are verified
// bit-for-bit, one index version publishes per batch, and a stamped root
// must match.
func (s *Store) replayTail(replay func(since uint64, fn func(seq uint64, payload []byte) error) error, since, upTo uint64) (uint64, error) {
	reached := since
	err := replay(since, func(seq uint64, payload []byte) error {
		if seq > upTo {
			return errStopReplay
		}
		s.mu.Lock()
		err := s.applyShippedLocked(payload)
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("batch %d: %w", seq, err)
		}
		reached = seq
		return nil
	})
	if errors.Is(err, errStopReplay) {
		err = nil
	}
	return reached, err
}

// LoadLatest recovers a Store from a WAL backend: the newest checkpoint
// plus a replay of the durable log tail (torn or corrupt tail records are
// discarded). The WAL stays attached — subsequent commits keep appending
// where the log left off — and opts configure the attachment exactly as
// they do for WithWAL (see AutoCheckpoint). An empty backend reports
// ErrNoVersion: seed a store and attach it with WithWAL instead.
func LoadLatest(w WALBackend, opts ...WALOption) (*Store, error) {
	pol, err := newWALPolicy(w, opts)
	if err != nil {
		return nil, err
	}
	seq, data, err := w.Latest()
	if err != nil {
		return nil, err
	}
	s, err := restoreStore(data)
	if err != nil {
		return nil, err
	}
	s.doc.TrackOps()
	if _, err := s.replayTail(w.ReplaySince, seq, math.MaxUint64); err != nil {
		return nil, fmt.Errorf("ltree: wal replay: %w", err)
	}
	s.wal = w
	s.walPolicy = pol
	return s, nil
}

// Compact rebuilds the label tree without tombstones (extension; see
// DESIGN.md §2.3). Compaction relabels everything, so the index is
// rebuilt outright rather than patched. It commits like any write:
// logged, then published, and a failure fences the store.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fencedErr(); err != nil {
		return err
	}
	if err := s.doc.CompactLabels(); err != nil {
		return s.fence(err) // the tree may be partially compacted
	}
	s.doc.TakeChanges() // everything moved; a patch would refresh it all anyway
	next := index.Build(s.doc)
	// Compaction logs as a single op — replay re-runs the deterministic
	// rebuild, so the log stays O(1) for an O(document) relabeling.
	if err := s.appendOpsLocked(s.doc.TakeOps(), next); err != nil {
		return s.fence(err)
	}
	s.publish(next)
	return nil
}

// Stats returns the accumulated maintenance counters.
func (s *Store) Stats() Counters {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.doc.Stats()
}

// BitsPerLabel returns the current label width in bits.
func (s *Store) BitsPerLabel() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.doc.Tree().BitsPerLabel()
}

// Write serializes the current document.
func (s *Store) Write(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.doc.X.Write(w)
}

// String serializes the current document to a string.
func (s *Store) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.doc.X.String()
}

// Check runs the full invariant suite (labels, binding, structure) plus
// the engine's own: the published index must agree with a fresh build.
func (s *Store) Check() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.doc.Check(); err != nil {
		return err
	}
	return index.Verify(s.vers.Current().Ix, s.doc)
}
