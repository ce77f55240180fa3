package ltree

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/ltree-db/ltree/internal/storage"
)

// Follower is a read replica fed by log shipping: it bootstraps from the
// leader WAL's newest checkpoint, catches up through the durable log
// tail, and then applies every committed batch live — one copy-on-write
// index version per batch, exactly as the leader published them. The
// L-Tree's deterministic relabeling makes the shipped stream sufficient:
// the follower replays logical ops through the same mutation paths the
// leader ran (document.ApplyPayload verifies the recorded labels
// bit-for-bit), so no physical page shipping is needed and the follower
// state at applied sequence number s equals the leader's durable state
// at s — the same recovery-equals-oracle property the crash torture
// suite pins.
//
// The whole snapshot-isolated read surface is served: View, SnapshotView
// and SnapshotAt pin one index version per Txn, with the apply loop
// committing behind them just like a leader-side writer would. A
// follower observes the leader's *durable* prefix: with group commit
// (WALOptions.SyncEvery > 1) a batch becomes visible here at the next
// flush, and a batch the leader's log lost (a failed append later
// repaired by Checkpoint) never arrives — the repairing checkpoint
// marks the log re-based, every attached follower stops with
// storage.ErrShipRebased in Stats().Err rather than follow a stream
// that no longer reconstructs the leader, and a fresh OpenFollower
// re-seeds from the repair checkpoint. A follower likewise stops (with
// storage.ErrSourceClosed) when the leader closes its WAL; already-
// applied state stays readable either way.
//
// A Follower's methods are safe for concurrent use. Close detaches it;
// Promote turns it into the writable store on leader handoff.
type Follower struct {
	st   *Store
	src  storage.TailSource
	tail *storage.Tailer

	done chan struct{} // closed when the apply loop exits

	mu      sync.Mutex
	applied uint64        // last applied batch sequence number
	batches uint64        // batches applied since attach
	bump    chan struct{} // closed+replaced on every state change
	err     error         // terminal ship/apply error
	stopped bool          // Close or Promote ran
}

// FollowerStats is a snapshot of a follower's replication state.
type FollowerStats struct {
	// AppliedSeq is the sequence number of the last batch applied; reads
	// observe exactly the leader's durable state at this point.
	AppliedSeq uint64
	// LeaderSeq is the leader's last appended batch at the time of the
	// call (its durable end, modulo group-commit buffering).
	LeaderSeq uint64
	// Lag is LeaderSeq - AppliedSeq: how many committed batches the
	// follower has yet to apply. 0 means fully caught up.
	Lag uint64
	// Batches counts batches applied since this follower attached.
	Batches uint64
	// Running reports whether the apply loop is still replicating: false
	// after Close/Promote or a terminal error. A detached follower keeps
	// serving reads, but its Lag grows without bound — check Running, not
	// Err, for liveness.
	Running bool
	// Err is the terminal error that stopped replication
	// (storage.ErrShipRebased, storage.ErrSourceClosed, an apply
	// failure); nil while healthy and also nil after a clean
	// Close/Promote — liveness is Running's job.
	Err error
}

// OpenFollower attaches a read replica to a leader's WAL backend: it
// restores the newest checkpoint, then streams the durable log tail —
// catch-up first, live tail on append notification — applying one index
// version per batch. The backend must support tailing (the built-in WAL
// does; NewWALBackend) and hold a checkpoint (a leader's WithWAL writes
// the baseline). Share the leader's open WAL handle in-process; the
// follower only reads and never appends.
//
// The follower registers a segment-retention lease before reading, so
// leader checkpoints cannot truncate log records it still needs; the
// lease advances as batches apply, letting truncation catch up.
func OpenFollower(w WALBackend) (*Follower, error) {
	sh, err := storage.NewShipper(w)
	if err != nil {
		return nil, fmt.Errorf("ltree: open follower: %w", err)
	}
	seq, snap, tail, err := sh.TailLatest()
	if err != nil {
		if errors.Is(err, ErrNoVersion) {
			return nil, fmt.Errorf("ltree: open follower: WAL has no checkpoint (attach it to a leader with WithWAL first): %w", err)
		}
		return nil, fmt.Errorf("ltree: open follower: %w", err)
	}
	st, err := restoreStore(snap)
	if err != nil {
		tail.Close()
		return nil, fmt.Errorf("ltree: open follower: checkpoint restore: %w", err)
	}
	// NewShipper proved the TailSource assertion.
	return startFollower(st, w.(storage.TailSource), tail, seq), nil
}

// startFollower wraps a restored store at applied sequence number seq
// and starts the apply loop over tail.
func startFollower(st *Store, src storage.TailSource, tail *storage.Tailer, seq uint64) *Follower {
	f := &Follower{
		st:      st,
		src:     src,
		tail:    tail,
		done:    make(chan struct{}),
		applied: seq,
		bump:    make(chan struct{}),
	}
	go f.run()
	return f
}

// run is the apply loop: ship one durable batch, apply it, repeat until
// the tailer closes (Close/Promote) or an error stops replication.
func (f *Follower) run() {
	defer close(f.done)
	for {
		seq, payload, err := f.tail.Next()
		if err != nil {
			if !errors.Is(err, storage.ErrTailerClosed) {
				f.fail(fmt.Errorf("ltree: follower ship: %w", err))
			}
			return
		}
		if err := f.applyBatch(seq, payload); err != nil {
			f.fail(fmt.Errorf("ltree: follower apply batch %d: %w", seq, err))
			return
		}
	}
}

// applyBatch applies one shipped batch under the store's write lock and
// publishes the applied sequence number.
func (f *Follower) applyBatch(seq uint64, payload []byte) error {
	f.st.mu.Lock()
	err := f.st.applyShippedLocked(payload)
	f.st.mu.Unlock()
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.applied = seq
	f.batches++
	f.bumpLocked()
	f.mu.Unlock()
	return nil
}

// bumpLocked wakes every WaitFor. Caller holds f.mu.
func (f *Follower) bumpLocked() {
	close(f.bump)
	f.bump = make(chan struct{})
}

// fail records the terminal replication error. The follower keeps
// serving reads at its last applied state; Stats surfaces the error.
func (f *Follower) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
	f.bumpLocked()
}

// Stats reports the follower's replication state: applied/leader
// sequence numbers, lag in batches, and the terminal error if
// replication stopped.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	applied, batches, err, stopped := f.applied, f.batches, f.err, f.stopped
	f.mu.Unlock()
	leader := f.src.Seq()
	lag := uint64(0)
	if leader > applied {
		lag = leader - applied
	}
	return FollowerStats{
		AppliedSeq: applied,
		LeaderSeq:  leader,
		Lag:        lag,
		Batches:    batches,
		Running:    !stopped && err == nil,
		Err:        err,
	}
}

// TxnStats reports the replica store's read-transaction pin accounting
// (open and retired version pins), mirroring Store.TxnStats so node
// dashboards can aggregate leaders and followers uniformly.
func (f *Follower) TxnStats() (open, retired int) { return f.st.TxnStats() }

// WaitFor blocks until the follower has applied every batch up to seq,
// replication stops (the terminal error is returned), or the timeout
// expires (timeout <= 0 waits indefinitely). A successful return means
// reads now observe at least the leader state at seq.
func (f *Follower) WaitFor(seq uint64, timeout time.Duration) error {
	var deadline <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	for {
		f.mu.Lock()
		applied, err, stopped := f.applied, f.err, f.stopped
		ch := f.bump
		f.mu.Unlock()
		if applied >= seq {
			return nil
		}
		if err != nil {
			return err
		}
		if stopped {
			return ErrFollowerClosed
		}
		select {
		case <-ch:
		case <-deadline:
			return fmt.Errorf("ltree: follower did not reach seq %d (applied %d) within %v: %w", seq, applied, timeout, ErrWaitTimeout)
		}
	}
}

// Close detaches the follower: the retention lease is released and the
// apply loop stops. The already-applied state stays readable (the inner
// store and any open Txns remain valid), but no further batches arrive.
// Idempotent; returns the terminal replication error, if any.
func (f *Follower) Close() error {
	f.mu.Lock()
	f.stopped = true
	f.bumpLocked()
	f.mu.Unlock()
	f.tail.Close()
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Promote hands the follower's store over as a writable Store — the
// leader-handoff step. It drains every batch the leader's log holds (so
// the promoted store starts at the durable end), then detaches and
// returns the inner store. Promote assumes the old leader has stopped
// committing; batches appended after the drain are not applied.
//
// The promoted store has no WAL attached — the shipped log belongs to
// the old leader. Attach a fresh one with WithWAL to make the new
// leader durable. A follower whose replication already failed refuses
// to promote (its state is behind in a way the log cannot repair).
func (f *Follower) Promote() (*Store, error) {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return nil, ErrFollowerClosed
	}
	f.stopped = true
	f.bumpLocked()
	f.mu.Unlock()

	// Freeze truncation across the handoff window, then stop the loop.
	guard := f.src.Retain(0)
	defer guard.Release()
	f.tail.Close()
	<-f.done

	f.mu.Lock()
	applied, err := f.applied, f.err
	f.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("ltree: promote: replication had failed: %w", err)
	}
	// Drain the durable tail synchronously: everything the log holds
	// beyond what the loop applied before it stopped.
	reached, err := f.st.replayTail(f.src.ReplaySince, applied, math.MaxUint64)
	f.mu.Lock()
	f.applied = reached
	f.batches += reached - applied
	f.mu.Unlock()
	if err != nil {
		f.fail(err)
		return nil, fmt.Errorf("ltree: promote: drain: %w", err)
	}
	// Post-drain re-base check, mirroring Tailer.fill's post-sweep check:
	// a repair checkpoint racing the handoff re-bases the log, and the
	// leader marks the re-base strictly before any post-repair append —
	// so a count still at the attach-time baseline *after* the drain
	// proves the drained stream reconstructs the old leader. Without
	// this, the promoted store could incorporate a stream that no longer
	// does.
	if f.src.Rebases() != f.tail.RebaseBaseline() {
		err := fmt.Errorf("ltree: promote: log re-based during drain: %w", storage.ErrShipRebased)
		f.fail(err)
		return nil, err
	}
	return f.st, nil
}

// ---------------------------------------------------------------- reads
//
// The follower re-exports the store's read-only surface. Reads are
// snapshot-isolated exactly as on a leader: the apply loop is just
// another writer publishing one index version per batch behind pinned
// Txns. They keep working after Close/Promote, serving the last applied
// state.

// View runs fn inside a read transaction pinned to one index version;
// see Store.View.
func (f *Follower) View(fn func(*Txn) error) error { return f.st.View(fn) }

// SnapshotView opens a read transaction pinned to the current applied
// version; the caller must Close it. See Store.SnapshotView.
func (f *Follower) SnapshotView() *Txn { return f.st.SnapshotView() }

// SnapshotAt opens a read transaction pinned to an explicit version
// number; see Store.SnapshotAt.
func (f *Follower) SnapshotAt(version uint64) (*Txn, error) { return f.st.SnapshotAt(version) }

// Query evaluates a path expression against the current applied state;
// see Store.Query.
func (f *Follower) Query(expr string) ([]*Elem, error) { return f.st.Query(expr) }

// Elements returns the elements with the given tag ("*" = all) in
// document order; see Store.Elements.
func (f *Follower) Elements(tag string) []*Elem { return f.st.Elements(tag) }

// Label returns the node's current (begin, end) label; see Store.Label.
func (f *Follower) Label(n *Elem) (Label, error) { return f.st.Label(n) }

// IsAncestor decides ancestry purely from labels; see Store.IsAncestor.
func (f *Follower) IsAncestor(a, d *Elem) (bool, error) { return f.st.IsAncestor(a, d) }

// Compare orders two nodes by document order using labels only; see
// Store.Compare.
func (f *Follower) Compare(a, b *Elem) (int, error) { return f.st.Compare(a, b) }

// RootHash returns the content hash of the replica's published index
// version; equal to the leader's RootHash at the same applied batch
// (the apply loop verifies exactly that on every stamped batch). See
// Store.RootHash.
func (f *Follower) RootHash() Hash { return f.st.RootHash() }

// DiffVersions computes the entry-level change set between two applied
// index versions; see Store.DiffVersions.
func (f *Follower) DiffVersions(from, to uint64) (*ChangeSet, error) {
	return f.st.DiffVersions(from, to)
}

// Watch subscribes to the replica's change feed: one event per applied
// batch (coalesced under lag), exactly as Store.Watch reports commits.
// The feed survives Close/Promote in the sense that already-published
// versions stay diffable, but no further events arrive once the apply
// loop stops.
func (f *Follower) Watch(opts WatchOptions) (*Watcher, error) { return f.st.Watch(opts) }

// Root returns the replica document's root element.
func (f *Follower) Root() *Elem { return f.st.Root() }

// IndexVersion returns the published index version number; it grows by
// one per applied batch.
func (f *Follower) IndexVersion() uint64 { return f.st.IndexVersion() }

// Snapshot serializes the replica — DOM plus exact label state — in
// snapshot format v2; see Store.Snapshot.
func (f *Follower) Snapshot(w io.Writer) error { return f.st.Snapshot(w) }

// String serializes the replica document to a string.
func (f *Follower) String() string { return f.st.String() }

// Check runs the full invariant suite on the replica; see Store.Check.
func (f *Follower) Check() error { return f.st.Check() }
