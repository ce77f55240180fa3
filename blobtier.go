package ltree

import (
	"errors"
	"fmt"
	"math"

	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/storage/blob"
)

// This file is the public surface of the blob storage tier (DESIGN.md
// §9): object stores as a third layer under the WAL. A BlobTier mirrors
// a WAL backend's sealed segments and checkpoints into a BlobStore
// asynchronously — commits never wait on it — which buys three things:
//
//   - Durability beyond the local disk: after a machine loss, AttachBlobTier
//     on a fresh directory (or LoadLatest over it) recovers the
//     blob-durable prefix.
//   - Bounded local disk: with BlobTierOptions.ReleaseLocal, sealed
//     segments leave local disk once the tier holds them, while replays,
//     retention leases, and LoadAt transparently read through the tier.
//   - Cheap replica bootstrap: OpenFollowerSeeded seeds a follower from
//     the object store (checkpoint + segment tail) and only then attaches
//     to the leader for the live tail, so a new replica costs the leader
//     almost nothing.

// BlobStore is a minimal name-addressed object store: flat Put/Get over
// opaque byte values, List by key prefix, idempotent Delete. The two
// built-ins are NewBlobMemory and NewBlobDir; adapt any real object
// store (S3 and friends) by implementing these four methods — the tier
// never needs conditional writes or multipart uploads.
type BlobStore = blob.Store

// NewBlobMemory returns an in-process BlobStore (tests, ephemeral
// tiers).
func NewBlobMemory() BlobStore { return blob.NewMemory() }

// NewBlobDir opens (creating if needed) a directory-backed BlobStore:
// one file per object, crash-safe writes, nested keys as
// subdirectories. A network mount of it is the poor man's object store.
func NewBlobDir(root string) (BlobStore, error) { return blob.NewDir(root) }

// BlobFaultOptions configures NewBlobFaults' fault injection.
type BlobFaultOptions = blob.FaultOptions

// BlobFaultStats counts what a NewBlobFaults wrapper injected.
type BlobFaultStats = blob.FaultStats

// NewBlobFaults wraps a BlobStore with deterministic fault injection —
// transient errors, partial uploads, torn reads, latency — for torture
// tests and benchmarks. The tier's contract is designed against exactly
// these faults: it must converge through them without ever blocking a
// commit or trusting a torn object.
func NewBlobFaults(inner BlobStore, opt BlobFaultOptions) *blob.Faults {
	return blob.NewFaults(inner, opt)
}

// BlobTierOptions configures AttachBlobTier (object key prefix, local
// release, retry pacing).
type BlobTierOptions = storage.TierOptions

// BlobTierStats is the tier's accounting snapshot (upload/fetch
// counters, blob-durable sequence number, upload lag).
type BlobTierStats = storage.TierStats

// BlobTier is an attached blob storage tier; see AttachBlobTier.
type BlobTier = storage.BlobTier

// AttachBlobTier mirrors a WAL backend into a blob store and starts the
// asynchronous uploader. Attach before recovering or attaching the WAL
// to a store (the tier then serves recovery reads too). On a virgin WAL
// directory with a non-empty blob tier this is restore-from-backup: the
// local log fast-forwards and history reads through the tier. A
// non-empty local log that diverges from the blob state refuses loudly.
//
// The tier stops when the WAL backend is closed. Only backends from
// NewWALBackend support tiering.
func AttachBlobTier(w WALBackend, bs BlobStore, opt BlobTierOptions) (*BlobTier, error) {
	a, ok := w.(interface {
		AttachTier(blob.Store, storage.TierOptions) (*storage.BlobTier, error)
	})
	if !ok {
		return nil, errors.New("ltree: backend does not support a blob tier (use NewWALBackend)")
	}
	return a.AttachTier(bs, opt)
}

// BlobCheckpointRoot returns the newest blob-tier checkpoint's sequence
// number and the index root hash its snapshot was stamped with, read
// from the tier manifest alone — no object download. ok is false when
// the tier is empty or the newest checkpoint predates root stamping.
//
// This is hash-compare backup verification: a backup is current exactly
// when the returned root equals the leader's Store.RootHash (or a
// historical LoadAt root) — no byte-compare, no restore.
func BlobCheckpointRoot(bs BlobStore, prefix string) (seq uint64, root Hash, ok bool, err error) {
	man, err := storage.ReadBlobManifest(bs, prefix)
	if err != nil {
		return 0, Hash{}, false, err
	}
	if len(man.Ckpts) == 0 {
		return 0, Hash{}, false, nil
	}
	c := man.Ckpts[len(man.Ckpts)-1]
	return c.Seq, Hash(c.Root), c.HasRoot, nil
}

// WALStats reports a WAL backend's retention state: sequence numbers,
// local segment footprint, retention leases, and — when a blob tier is
// attached — its upload/fetch accounting. The observability companion
// to TxnStats; ltreed serves it under /v1/stats.
type WALStats = storage.RetentionStats

// WALStats returns the attached WAL backend's retention state; ok is
// false when the store has no WAL or the backend does not report
// retention (only NewWALBackend's does).
func (s *Store) WALStats() (WALStats, bool) {
	s.mu.Lock()
	w := s.wal
	s.mu.Unlock()
	r, ok := w.(interface{ RetentionStats() storage.RetentionStats })
	if !ok {
		return WALStats{}, false
	}
	return r.RetentionStats(), true
}

// LoadAt reconstructs a read-only Store at an exact historical sequence
// number: the newest checkpoint at or below seq plus a replay of the
// log up to seq, stopping there. With a blob tier attached the history
// is bottomless — checkpoints pruned and segments released from local
// disk are fetched back from the tier — so any blob-durable seq stays
// reconstructible, bit-identically, for as long as the tier holds it.
//
// The returned store is detached (no WAL): it is a snapshot of the
// past, not a fork of the log. Checkpoint + LoadAt is also the rollback
// idiom: checkpoint before a risky batch, LoadAt that version to get the
// state back.
func LoadAt(w WALBackend, seq uint64) (*Store, error) {
	vers, err := w.Versions()
	if err != nil {
		return nil, err
	}
	base, found := uint64(0), false
	for _, v := range vers {
		if v <= seq {
			base, found = v, true
		}
	}
	if !found {
		return nil, fmt.Errorf("ltree: no checkpoint at or below seq %d: %w", seq, ErrNoVersion)
	}
	data, err := w.Get(base)
	if err != nil {
		return nil, err
	}
	s, err := restoreStore(data)
	if err != nil {
		return nil, err
	}
	reached, err := s.replayTail(w.ReplaySince, base, seq)
	if err != nil {
		return nil, fmt.Errorf("ltree: replay to seq %d: %w", seq, err)
	}
	if reached != seq {
		return nil, fmt.Errorf("ltree: seq %d is not durable (log reaches %d): %w", seq, reached, ErrNoVersion)
	}
	return s, nil
}

// OpenFollowerSeeded is OpenFollower with a blob-seeded bootstrap: the
// replica restores the newest checkpoint and replays the segment tail
// from the blob tier under prefix — the leader serves none of it — and
// only then attaches to the leader's WAL for the live tail. Use it to
// bring up replicas without making the leader re-ship history it
// already uploaded.
//
// The blob tier must mirror this same WAL (the leader's AttachBlobTier
// with the same prefix); a tier from a different log surfaces as a
// sequence gap.
func OpenFollowerSeeded(w WALBackend, bs BlobStore, prefix string) (*Follower, error) {
	sh, err := storage.NewShipper(w)
	if err != nil {
		return nil, fmt.Errorf("ltree: open seeded follower: %w", err)
	}
	src := w.(storage.TailSource) // NewShipper proved the assertion
	// Freeze log truncation across the bootstrap, so the live tail can
	// attach wherever the blob history ends.
	guard := src.Retain(0)
	defer guard.Release()

	seq, snap, err := storage.BlobLatest(bs, prefix)
	if err != nil {
		if errors.Is(err, ErrNoVersion) {
			return nil, fmt.Errorf("ltree: open seeded follower: blob tier holds no checkpoint (is the leader's tier attached and caught up?): %w", err)
		}
		return nil, fmt.Errorf("ltree: open seeded follower: %w", err)
	}
	st, err := restoreStore(snap)
	if err != nil {
		return nil, fmt.Errorf("ltree: open seeded follower: checkpoint restore: %w", err)
	}
	end, err := st.replayTail(func(since uint64, fn func(uint64, []byte) error) error {
		_, err := storage.ReplayBlobSince(bs, prefix, since, fn)
		return err
	}, seq, math.MaxUint64)
	if err != nil {
		return nil, fmt.Errorf("ltree: open seeded follower: blob replay: %w", err)
	}
	return startFollower(st, src, sh.Tail(end), end), nil
}
