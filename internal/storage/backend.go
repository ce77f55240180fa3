package storage

import "errors"

// WALBackend is the persistence seam the engine writes through: commits
// append framed change batches to a write-ahead log, a checkpoint stores
// a full snapshot and truncates the log, and recovery is the newest
// checkpoint plus a replay of the durable log tail. A backend's versions
// are its checkpoints, numbered by the batch sequence number they cover.
//
// The *WAL type is the file-backed implementation; RemoteTailSource is
// the read-only network one.
type WALBackend interface {
	// AppendBatch appends one encoded change batch (an EncodeOps payload)
	// as the next log record and returns its sequence number (sequence
	// numbers start at 1 and grow by one per batch).
	AppendBatch(payload []byte) (uint64, error)
	// ReplaySince streams every durable batch with sequence number >
	// since, in order. A torn or corrupt log tail ends the replay
	// silently — recovery semantics are "longest durable prefix".
	ReplaySince(since uint64, fn func(seq uint64, payload []byte) error) error
	// Checkpoint stores snapshot as covering every batch appended so far
	// and truncates the log; it returns the checkpoint's version (the
	// covered sequence number).
	Checkpoint(snapshot []byte) (uint64, error)
	// Get returns the checkpoint snapshot stored under the version.
	Get(version uint64) ([]byte, error)
	// Latest returns the newest checkpoint's version and snapshot.
	Latest() (uint64, []byte, error)
	// Versions lists the stored checkpoint versions in ascending order.
	Versions() ([]uint64, error)
	// Prune removes every checkpoint strictly below keep. The newest one
	// always survives, whatever keep says: recovery needs a snapshot to
	// replay onto.
	Prune(keep uint64) error
	// Sync makes group-committed appends durable.
	Sync() error
	// Close flushes and releases the log; appending afterwards fails.
	Close() error
}

// ErrNoVersion reports a missing checkpoint version.
var ErrNoVersion = errors.New("storage: no such snapshot version")
