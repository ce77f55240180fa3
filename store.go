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
// internal/index) — then publish it atomically. Use Update to batch
// several mutations into one commit and one published version.
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
	// rewriting a snapshot. walErr, once set, suspends appending: the log
	// is missing a committed batch, so appending later batches would
	// leave a logical hole that poisons recovery of the whole tail. A
	// successful Checkpoint clears it (the snapshot covers the missed
	// batches and truncates the log).
	wal    storage.WALBackend
	walErr error

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
// is the single seam all publish sites share — live commits, the
// rebuild-on-error path, compaction, and shipped-batch apply — so
// change feeds observe every version no matter which path produced it.
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
// the next index version, publishes it, and — when a WAL is attached —
// appends the batch's logical ops as one fsync'd log record (triggering
// an auto-checkpoint when the policy says the log outgrew its budget).
// Caller holds the write lock. The index is published even when the
// append fails, so the in-memory engine stays consistent; the returned
// error then means "this commit may not be durable" and the caller
// should checkpoint or stop trusting the log.
func (s *Store) commitLocked() error {
	if err := s.advanceIndexLocked(); err != nil {
		return err
	}
	ops := s.doc.TakeOps()
	if err := s.appendOpsLocked(ops); err != nil {
		return err
	}
	return s.maybeAutoCheckpointLocked()
}

// advanceIndexLocked derives and publishes the next index version from
// the pending change batch. If the incremental patch reports the batch
// contradicts the document — an indexed entry unbound with no removal
// record — the index is rebuilt from the document outright (so readers
// never see a quietly shrunken version) and the violation is returned as
// an error: the store stays consistent but fails loudly.
func (s *Store) advanceIndexLocked() error {
	ch := s.doc.TakeChanges()
	if ch.Empty() {
		return nil
	}
	cur := s.vers.Current()
	next, err := cur.Ix.Apply(s.doc, ch)
	if err != nil {
		s.publish(index.Build(s.doc))
		return fmt.Errorf("ltree: index patch rejected the change batch (index rebuilt): %w", err)
	}
	s.publish(next)
	return nil
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

// appendOpsLocked logs one committed batch to the attached WAL (no-op
// without one), maintaining the suspension state: after a lost batch no
// further batch may be appended — the hole would poison replay of the
// whole tail — until a successful Checkpoint re-bases the log.
func (s *Store) appendOpsLocked(ops []storage.Op) error {
	if s.wal == nil || len(ops) == 0 {
		return nil
	}
	if s.walErr != nil {
		return fmt.Errorf("ltree: wal suspended after a lost batch (Checkpoint to recover): %w", s.walErr)
	}
	// Stamp the batch with the just-published index root hash (~35 B on
	// the wire). Replay skips the stamp; followers compare it against
	// their own recomputed root after applying the batch, turning silent
	// divergence into a loud ErrReplicaDiverged at the acking seam.
	ops = append(ops, storage.Op{Kind: storage.OpStamp, Root: [32]byte(s.vers.Current().Ix.RootHash())})
	payload, err := storage.EncodeOps(ops)
	if err != nil {
		s.walErr = err
		return fmt.Errorf("ltree: wal encode: %w", err)
	}
	if _, err := s.wal.AppendBatch(payload); err != nil {
		s.walErr = err
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
// derived and published when fn returns. Batching amortizes the
// copy-on-write patching across all the mutations. Update holds the
// write lock for the duration of fn.
//
// A Batch is not a transaction: an error from fn rolls nothing back —
// the commit still publishes (and, with a WAL attached, logs) whatever fn
// changed, keeping the index and the log in sync with the document.
// Callers needing rollback should Snapshot (or, on a WAL-backed store,
// Checkpoint) first and Restore (or LoadAt that checkpoint) on failure.
func (s *Store) Update(fn func(*Batch) error) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
// child.
func (s *Store) InsertElement(parent *Elem, idx int, tag string, attrs ...Attr) (el *Elem, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { err = firstErr(err, s.commitLocked()) }()
	return s.doc.InsertElement(parent, idx, tag, attrs...)
}

// InsertText creates and labels a text node as parent's idx-th child.
func (s *Store) InsertText(parent *Elem, idx int, data string) (txt *Elem, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { err = firstErr(err, s.commitLocked()) }()
	return s.doc.InsertText(parent, idx, data)
}

// InsertSubtree splices a detached subtree (built with NewElement/NewText
// or parsed via ParseXML) as parent's idx-th child, labeling all of its
// tags with one bulk run insertion (paper §4.1).
func (s *Store) InsertSubtree(parent *Elem, idx int, sub *Elem) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { err = firstErr(err, s.commitLocked()) }()
	return s.doc.InsertSubtree(parent, idx, sub)
}

// InsertXML parses an XML fragment and splices it as parent's idx-th
// child in one bulk insertion.
func (s *Store) InsertXML(parent *Elem, idx int, fragment string) (el *Elem, err error) {
	frag, err := xmldom.ParseString(fragment)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { err = firstErr(err, s.commitLocked()) }()
	if err := s.doc.InsertSubtree(parent, idx, frag.Root); err != nil {
		return nil, err
	}
	return frag.Root, nil
}

// Delete detaches a subtree; its labels become tombstones and nothing is
// relabeled (paper §2.3).
func (s *Store) Delete(n *Elem) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { err = firstErr(err, s.commitLocked()) }()
	return s.doc.DeleteSubtree(n)
}

// Move relocates a subtree to become parent's idx-th child, preserving
// node identities: the old labels become tombstones and the subtree is
// relabeled at the target with one bulk run.
func (s *Store) Move(n, parent *Elem, idx int) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { err = firstErr(err, s.commitLocked()) }()
	return s.doc.Move(n, parent, idx)
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
// stamp as divergence.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshotLocked(w)
}

// snapshotLocked is Snapshot's body for callers already holding a lock.
func (s *Store) snapshotLocked(w io.Writer) error {
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
// on whatever cadence bounds your recovery time.
//
// Checkpoint is also the repair path after a failed append: the snapshot
// covers the batches the log lost, so a success lifts the suspension and
// commits log again.
func (s *Store) Checkpoint() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint's body; the auto-checkpoint policy
// calls it from inside an already-locked commit.
func (s *Store) checkpointLocked() (uint64, error) {
	if s.wal == nil {
		return 0, errors.New("ltree: no WAL attached (WithWAL, or LoadLatest on a WAL backend)")
	}
	// Fold any uncommitted state (direct Document() mutations since the
	// last commit) into this checkpoint: publish the index and discard
	// the pending ops — the snapshot below covers them, and appending
	// them after it would replay them twice.
	if err := s.advanceIndexLocked(); err != nil {
		return 0, err
	}
	s.doc.TakeOps()
	var buf bytes.Buffer
	// advanceIndexLocked just ran, so the published index describes the
	// document exactly — stamp the checkpoint with its root hash. Restore
	// verifies the rebuilt index against it, and the blob tier ships it in
	// manifests for hash-compare backup verification.
	if err := s.doc.SnapshotStamped(&buf, [32]byte(s.vers.Current().Ix.RootHash())); err != nil {
		// The drained ops are gone but the snapshot never happened:
		// appending later batches would leave a hole, so suspend until a
		// checkpoint succeeds.
		s.walErr = firstErr(s.walErr, err)
		return 0, err
	}
	repairing := s.walErr != nil
	v, err := s.wal.Checkpoint(buf.Bytes())
	if err != nil {
		// Whether or not the checkpoint file became visible, the only
		// coherent continuation is another (successful) checkpoint: the
		// drained ops exist nowhere else, and appending past them would
		// poison replay.
		s.walErr = firstErr(s.walErr, err)
		return 0, err
	}
	if repairing {
		// This checkpoint covers batches the log lost: the op stream is
		// re-based. Attached log-shipping followers can no longer
		// reconstruct this store from the stream alone — mark the WAL so
		// their tailers stop (ErrShipRebased) instead of silently
		// diverging; they re-seed from the checkpoint just written.
		if r, ok := s.wal.(interface{ MarkRebased() }); ok {
			r.MarkRebased()
		}
	}
	s.walErr = nil
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
	} else if err := s.advanceIndexLocked(); err != nil {
		return err
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
// rebuilt outright rather than patched.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.doc.CompactLabels()
	s.doc.TakeChanges() // everything moved; a patch would refresh it all anyway
	s.publish(index.Build(s.doc))
	// Compaction logs as a single op — replay re-runs the deterministic
	// rebuild, so the log stays O(1) for an O(document) relabeling.
	ops := s.doc.TakeOps()
	if err != nil {
		// The tree may be partially compacted with nothing logged (and
		// any pending direct-mutation ops were just dropped): suspend
		// appends until a Checkpoint captures the actual state.
		if s.wal != nil {
			s.walErr = firstErr(s.walErr, err)
		}
		return err
	}
	return s.appendOpsLocked(ops)
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
