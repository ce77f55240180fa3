package ltree

import (
	"errors"

	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/storage/blob"
)

// This file is the package's error surface: every sentinel the public
// API returns lives here, grouped by the layer that produces it. All of
// them are matched with errors.Is — returned errors usually wrap a
// sentinel with call-site detail (sequence numbers, hashes, document
// ids), so compare with errors.Is, never ==.

// Labeling-layer sentinels (the L-Tree itself).
var (
	// ErrBadParams reports Params that violate the paper's constraints
	// (s ≥ 2, f a multiple of s, f/s ≥ 2).
	ErrBadParams = core.ErrBadParams

	// ErrNotLeaf reports a slot operation on an internal L-Tree node.
	ErrNotLeaf = core.ErrNotLeaf

	// ErrLabelOverflow reports that the label space exceeded 2^62 bits;
	// choose a larger f or s (see AnalyzeParams).
	ErrLabelOverflow = core.ErrLabelOverflow
)

// Document-layer sentinels.
var (
	// ErrUnbound reports an operation on a node that is not part of the
	// labeled document (detached, deleted, or never inserted).
	ErrUnbound = document.ErrUnbound

	// ErrRootEdit reports an attempt to move or delete the root element.
	ErrRootEdit = document.ErrRootEdit
)

// Read-transaction sentinels (txn.go).
var (
	// ErrTxnClosed reports a read on a transaction after Close.
	ErrTxnClosed = errors.New("ltree: read transaction is closed")

	// ErrVersionRetired reports SnapshotAt or DiffVersions on a version
	// number that is neither current nor pinned by any open transaction.
	ErrVersionRetired = errors.New("ltree: index version retired (no open transaction pins it)")
)

// Persistence sentinels (snapshots, WAL).
var (
	// ErrNoVersion reports a missing checkpoint version in a WALBackend
	// (an empty backend has none; LoadAt names one that is not durable).
	ErrNoVersion = storage.ErrNoVersion

	// ErrShipRebased reports that a leader's log was re-based past a
	// lost batch (a repair Checkpoint): the shipped op stream can no
	// longer reconstruct the store, and followers must re-seed from the
	// newest checkpoint. Surfaces from Follower.WaitFor/Promote/Stats.
	ErrShipRebased = storage.ErrShipRebased
)

// Replication sentinels (follower.go, watch.go).
var (
	// ErrFollowerClosed reports use of a follower after Close/Promote.
	ErrFollowerClosed = errors.New("ltree: follower is closed")

	// ErrWaitTimeout reports that WaitFor's timeout expired before the
	// follower applied the requested sequence number. The returned error
	// carries the seq/applied detail.
	ErrWaitTimeout = errors.New("ltree: follower wait timed out")

	// ErrReplicaDiverged reports an index integrity failure: a replica's
	// recomputed index root hash disagrees with the root the writer
	// stamped into the batch or snapshot. It means the two sides hold
	// different index content — bit rot, a torn copy the CRCs missed, or
	// a labeling/replication bug — and the replica refuses to serve the
	// divergent state silently. Recovery is a re-seed from a fresh
	// checkpoint. Detection is O(1) per acked batch on top of the
	// incremental hash maintenance; see DESIGN.md §10.
	ErrReplicaDiverged = errors.New("ltree: replica index diverged from the leader's stamped root hash")
)

// Forest sentinels (forest.go).
var (
	// ErrForestTopology reports OpenForest on a directory whose manifest
	// pins a different shard count (resharding is not supported).
	ErrForestTopology = storage.ErrForestTopology

	// ErrNoDoc reports an operation on a document id the forest does not
	// hold.
	ErrNoDoc = errors.New("ltree: forest holds no document with that id")

	// ErrDocBusy reports two concurrent writes racing on the same
	// document id. Writes to different documents never contend here.
	ErrDocBusy = errors.New("ltree: concurrent write to the same forest document")
)

// Blob-tier sentinels (blobtier.go).
var (
	// ErrBlobNotExist reports a missing blob object.
	ErrBlobNotExist = blob.ErrNotExist

	// ErrBlobTransient is the injected transient failure produced by
	// NewBlobFaults wrappers in torture tests.
	ErrBlobTransient = blob.ErrTransient
)
