package storage

import (
	"errors"
	"fmt"
	"sync"
)

// This file is the log-shipping seam: a Shipper hands out Tailers over a
// write-ahead log, and a Tailer streams every durable batch — catch-up
// via ReplaySince from wherever the consumer left off, then live tail on
// append notification — to feed a read replica (ltree.Follower). The
// L-Tree's deterministic relabeling is what makes this cheap: a follower
// needs no physical page shipping, just the logical op stream the WAL
// already persists, because replaying it from the same checkpoint
// reproduces labels bit-for-bit (the recovery-equals-oracle property the
// crash torture pins).
//
// Retention: every Tailer holds a Lease on its source, registered before
// the first record is read and advanced as records are delivered, so the
// leader's Checkpoint truncation cannot drop a segment the tailer still
// needs — a slow follower survives a checkpoint mid-catch-up. Segments
// kept back by a lease are reclaimed by the next checkpoint after the
// lease advances past them (or is released).

// Lease is a segment-retention guard handed out by a TailSource: while
// held, log records above the floor stay replayable. Advance moves the
// floor forward as records are consumed; Release drops the guard.
type Lease interface {
	// Advance raises the floor to seq (never retreats): records at or
	// below seq are no longer needed by this holder.
	Advance(seq uint64)
	// Release drops the lease. Idempotent.
	Release()
}

// TailSource is the capability set log shipping needs from a WAL backend:
// the WALBackend surface plus durability notification and segment
// retention. The built-in *WAL implements it; a WALBackend without these
// capabilities cannot be tailed live.
type TailSource interface {
	WALBackend
	// Seq returns the sequence number of the last appended batch.
	Seq() uint64
	// AppendWatch returns a channel closed the next time appended
	// records become durable; wait on it instead of polling. It returns
	// nil once the source is closed — nothing will ever fire again.
	AppendWatch() <-chan struct{}
	// Retain registers a retention lease at seq; see Lease.
	Retain(seq uint64) Lease
}

// posReplayer is the optional fast-sweep capability: a resumable replay
// cursor, so a live tailer reads O(new records) per sweep instead of
// re-decoding the current segment from its start every wakeup. The
// built-in WAL implements it; a TailSource without it falls back to
// plain ReplaySince sweeps.
type posReplayer interface {
	ReplayFromPos(pos TailPos, fn func(seq uint64, payload []byte) error) (TailPos, error)
}

// Errors reported by the shipping layer.
var (
	// ErrTailerClosed reports a receive on a closed Tailer.
	ErrTailerClosed = errors.New("storage: tailer is closed")
	// ErrSourceClosed reports that the tailed WAL was closed: every
	// durable record has been delivered and no more can arrive.
	ErrSourceClosed = errors.New("storage: ship source is closed")
)

// errFillFull is the internal sentinel fill uses to bound one ReplaySince
// sweep (so catch-up over a long log buffers a window, not the whole
// tail).
var errFillFull = errors.New("storage: fill window full")

// Shipper hands out Tailers over one log source. It holds no state of
// its own — the per-consumer state (position, buffer, lease) lives in
// the Tailer — so one Shipper serves any number of followers.
type Shipper struct {
	src TailSource
}

// NewShipper wraps a WAL backend for log shipping. It fails if the
// backend lacks the tail capabilities (the built-in WAL has them).
func NewShipper(w WALBackend) (*Shipper, error) {
	src, ok := w.(TailSource)
	if !ok {
		return nil, fmt.Errorf("storage: %T cannot be tailed (needs Seq/AppendWatch/Retain; the built-in WAL backend has them)", w)
	}
	return &Shipper{src: src}, nil
}

// Tail attaches a Tailer that streams every durable batch with sequence
// number > since. The retention lease is registered before returning, so
// records above since present at the call are guaranteed reachable; if
// the log has already been truncated past since, the first Next reports
// the gap as ErrCorruptWAL.
func (s *Shipper) Tail(since uint64) *Tailer {
	return newTailer(s.src, since)
}

// TailLatest atomically pairs the newest checkpoint snapshot with a
// Tailer attached right after it — the bootstrap a fresh follower needs:
// restore the snapshot, then stream the tail. A temporary whole-log
// lease bridges the window between reading the checkpoint and
// registering the tailer's own lease, so a concurrent leader checkpoint
// cannot truncate the gap away. ErrNoVersion means the source has no
// checkpoint yet (attach the WAL to a store first; WithWAL writes the
// baseline).
func (s *Shipper) TailLatest() (seq uint64, snapshot []byte, t *Tailer, err error) {
	guard := s.src.Retain(0)
	defer guard.Release()
	seq, snapshot, err = s.src.Latest()
	if err != nil {
		return 0, nil, nil, err
	}
	return seq, snapshot, newTailer(s.src, seq), nil
}

// shipRec is one buffered (seq, payload) pair.
type shipRec struct {
	seq     uint64
	payload []byte
}

// Tailer streams durable WAL batches in sequence order: buffered
// catch-up sweeps while behind, blocking on append notification once
// caught up. It is single-consumer — one goroutine calls Next/TryNext —
// but Close may be called from any goroutine to unblock it.
type Tailer struct {
	src       TailSource
	next      uint64  // last delivered (or skipped) sequence number
	pos       TailPos // byte-accurate sweep cursor (posReplayer sources)
	buf       []shipRec
	lease     Lease
	closed    chan struct{}
	closeOnce sync.Once
}

// newTailer registers the retention lease at since and returns the
// handle positioned to deliver since+1 first.
func newTailer(src TailSource, since uint64) *Tailer {
	return &Tailer{
		src:    src,
		next:   since,
		pos:    TailPos{Seq: since},
		lease:  src.Retain(since),
		closed: make(chan struct{}),
	}
}

// Seq returns the sequence number of the last delivered batch.
func (t *Tailer) Seq() uint64 { return t.next }

// Close releases the tailer's retention lease and unblocks a concurrent
// Next with ErrTailerClosed. Idempotent.
func (t *Tailer) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.lease.Release()
	})
	return nil
}

// Next returns the next durable batch, blocking until one is appended or
// the tailer is closed (ErrTailerClosed). The payload is owned by the
// caller. Replay errors — a gap where the log was truncated past this
// tailer's position before it attached, a poisoned source log, the
// source closing (ErrSourceClosed) — surface as-is and are terminal.
func (t *Tailer) Next() (uint64, []byte, error) {
	for {
		seq, payload, ok, err := t.TryNext()
		if err != nil || ok {
			return seq, payload, err
		}
		ch := t.src.AppendWatch()
		if ch == nil {
			// Closed source: the sweep above already delivered every
			// durable record, and no append can ever fire again.
			return 0, nil, ErrSourceClosed
		}
		if t.src.Seq() > t.next {
			continue // appended between the sweep and the watch
		}
		select {
		case <-ch:
		case <-t.closed:
			return 0, nil, ErrTailerClosed
		}
	}
}

// TryNext is the non-blocking Next: ok=false means no durable batch is
// available right now.
func (t *Tailer) TryNext() (uint64, []byte, bool, error) {
	select {
	case <-t.closed:
		return 0, nil, false, ErrTailerClosed
	default:
	}
	if len(t.buf) == 0 {
		if err := t.fill(); err != nil {
			return 0, nil, false, err
		}
	}
	if len(t.buf) == 0 {
		return 0, nil, false, nil
	}
	rec := t.buf[0]
	t.buf = t.buf[1:]
	t.next = rec.seq
	// Records at or below rec.seq are delivered (and anything still in
	// buf is already copied out of the segment files), so the leader may
	// truncate up to here.
	t.lease.Advance(rec.seq)
	return rec.seq, rec.payload, true, nil
}

// fillWindow bounds one sweep's buffered records (per-sweep memory, not
// correctness: the byte cursor resumes exactly where the window closed).
const fillWindow = 256

// fill sweeps up to fillWindow durable records after t.next into the
// buffer. Payloads are copied — the buffer owns them. On a posReplayer
// source the sweep resumes at the byte cursor (O(new records)); plain
// TailSources re-scan from t.next.
func (t *Tailer) fill() error {
	collect := func(seq uint64, payload []byte) error {
		if len(t.buf) >= fillWindow {
			return errFillFull
		}
		t.buf = append(t.buf, shipRec{seq: seq, payload: append([]byte(nil), payload...)})
		return nil
	}
	var err error
	if pr, ok := t.src.(posReplayer); ok {
		// fill runs only with an empty buffer, so every record the last
		// sweep buffered has been delivered and t.pos.Seq == t.next.
		t.pos, err = pr.ReplayFromPos(t.pos, collect)
	} else {
		err = t.src.ReplaySince(t.next, collect)
	}
	if errors.Is(err, errFillFull) {
		return nil
	}
	return err
}
