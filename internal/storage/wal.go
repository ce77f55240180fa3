package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// WAL is the file-backed WALBackend: commits append one fsync'd framed
// record to a log segment instead of rewriting a snapshot, and a
// checkpoint writes a full snapshot and truncates the log. The recovery
// contract is graviton-style append-only durability: after any crash,
// reopening yields exactly the longest durable prefix — the newest
// checkpoint plus every intact log record after it; a torn tail or a
// corrupt record is detected (length + CRC-32C framing) and discarded.
//
// On-disk layout (one directory):
//
//	ckpt-%016d.ltsnap   checkpoint snapshots; the number is the sequence
//	                    number of the last batch the snapshot covers
//	wal-%016d.log       log segments; the number is the sequence number
//	                    the segment starts after (its first record is
//	                    base+1). Segment header: 8-byte magic "LTWAL\0\1"
//	                    + base as uint64 LE; then framed records
//	                    (walrecord.go).
//
// A WAL's versions are its checkpoints: Get/Latest/Versions/Prune
// address checkpoint snapshots. Because a checkpoint's version is the
// sequence number it covers, two checkpoints with no batches between
// them share a version (same state, same number).
type WAL struct {
	mu       sync.Mutex
	dir      string
	opt      WALOptions
	seg      *os.File // current segment, positioned at its durable end
	segBase  uint64
	segEnd   int64  // byte offset of the segment's last complete record
	seq      uint64 // last appended batch sequence number
	unsynced int    // appends since the last fsync (group commit)
	broken   error  // a failed fsync, or a partial append not rolled back

	ckptSeq   uint64 // sequence number covered by the newest checkpoint
	liveBytes int64  // framed record bytes appended since that checkpoint

	// tier, when non-nil, mirrors sealed segments and checkpoints into a
	// blob store (tier.go): rotations and checkpoints kick its uploader,
	// reads of released or pruned artifacts fall through to it. Lock
	// order: w.mu may be held when taking tier.mu, never the reverse.
	tier *BlobTier

	// watch is the durability-notification broadcast: whenever appended
	// records become durable (a synced append, Sync, Checkpoint) the
	// current channel is closed — waking every Tailer blocked on it —
	// and AppendWatch lazily allocates the next one. Nil when nobody
	// waits. Group-commit buffered appends do NOT fire it: waking a
	// tailer per buffered append would make its sweep fsync the segment,
	// silently degrading a SyncEvery>1 leader to fsync-per-commit.
	watch chan struct{}

	// leases are the segment-retention guards registered by attached
	// tailers (see ship.go): Checkpoint's log truncation never deletes a
	// segment holding records above the lowest lease floor, so a slow
	// follower mid-catch-up survives a leader checkpoint.
	leases map[*walLease]struct{}
}

// WALOptions tunes a WAL.
type WALOptions struct {
	// SyncEvery groups commits: the segment is fsync'd once per SyncEvery
	// appends instead of on every append. 0 or 1 syncs every append (full
	// durability); larger values trade the tail of a crash for latency.
	// Sync and Checkpoint always flush regardless.
	SyncEvery int
	// SegmentBytes seals the live segment and starts a fresh one once it
	// grows past this many bytes, decoupling segment boundaries from
	// checkpoints. 0 (the default) rotates only at checkpoints — the
	// original behavior. Size rotation is what gives an attached blob
	// tier sealed segments to upload between checkpoints, bounding the
	// not-yet-blob-durable window.
	SegmentBytes int64
}

// walMagic heads every log segment: "LTWAL" + NUL + format version 1.
var walMagic = [8]byte{'L', 'T', 'W', 'A', 'L', 0, 0, 1}

// segHeaderLen is the segment header: magic + base sequence number.
const segHeaderLen = len(walMagic) + 8

// OpenWAL opens (creating if needed) a write-ahead log in dir and
// recovers its durable state: the newest segment is scanned and its torn
// or corrupt tail, if any, is truncated away so appends continue from the
// last durable record.
func OpenWAL(dir string, opt WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opt: opt}
	// Sweep checkpoint temp files a crash mid-Checkpoint left behind:
	// they are incomplete by definition (a finished checkpoint is renamed
	// to its ckpt-*.ltsnap name before Checkpoint returns).
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if name := e.Name(); filepath.Ext(name) == ".tmp" && strings.HasPrefix(name, "ckpt-") {
				_ = os.Remove(filepath.Join(dir, name))
			}
		}
	}
	segs, err := w.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		base := uint64(0)
		if cks, err := w.listCheckpoints(); err != nil {
			return nil, err
		} else if len(cks) > 0 {
			base = cks[len(cks)-1]
		}
		if err := w.newSegment(base); err != nil {
			return nil, err
		}
		w.ckptSeq = base
		return w, nil
	}
	base := segs[len(segs)-1]
	f, err := os.OpenFile(w.segPath(base), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	good, lastSeq, err := repairSegment(f, base)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w.seg, w.segBase, w.segEnd, w.seq = f, base, good, lastSeq
	// Rebuild the live-log accounting: bytes in every segment after the
	// newest checkpoint. Only the newest segment can hold a torn tail
	// (appends go nowhere else), so sealed sizes are trusted as-is.
	cks, err := w.listCheckpoints()
	if err != nil {
		f.Close()
		return nil, err
	}
	if len(cks) > 0 {
		w.ckptSeq = cks[len(cks)-1]
	}
	for _, b := range segs {
		if b < w.ckptSeq {
			continue
		}
		n := good - int64(segHeaderLen)
		if b != base {
			st, err := os.Stat(w.segPath(b))
			if err != nil {
				f.Close()
				return nil, err
			}
			n = st.Size() - int64(segHeaderLen)
		}
		if n > 0 {
			w.liveBytes += n
		}
	}
	return w, nil
}

// repairSegment scans an opened segment, truncates any torn or corrupt
// tail (including a torn header, which resets the file to an empty
// segment), and returns the durable end offset and the last durable
// sequence number.
func repairSegment(f *os.File, base uint64) (int64, uint64, error) {
	if err := checkSegHeader(f, base); err != nil {
		if !errors.Is(err, ErrCorruptWAL) {
			return 0, 0, err // real I/O failure: do not destroy the file
		}
		// Torn or foreign header: treat the whole file as torn and
		// rewrite it as an empty segment rather than appending after junk.
		if err := writeSegHeader(f, base); err != nil {
			return 0, 0, err
		}
		return int64(segHeaderLen), base, nil
	}
	lastSeq := base
	good, err := scanRecords(f, base, func(seq uint64, payload []byte) error {
		lastSeq = seq
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	end := int64(segHeaderLen) + good
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if st.Size() > end {
		if err := f.Truncate(end); err != nil {
			return 0, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
	}
	return end, lastSeq, nil
}

// checkSegHeader reads and verifies the segment header; the file offset
// is left just past it on success. A short or mismatched header reports
// ErrCorruptWAL (repairable); a real read failure comes back as-is.
func checkSegHeader(r io.Reader, wantBase uint64) error {
	var head [segHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if isStreamEnd(err) {
			return fmt.Errorf("%w: segment header: %v", ErrCorruptWAL, err)
		}
		return err
	}
	for i, b := range walMagic {
		if head[i] != b {
			return fmt.Errorf("%w: bad segment magic", ErrCorruptWAL)
		}
	}
	if base := binary.LittleEndian.Uint64(head[len(walMagic):]); base != wantBase {
		return fmt.Errorf("%w: segment base %d, want %d", ErrCorruptWAL, base, wantBase)
	}
	return nil
}

// writeSegHeader truncates f and writes a fresh header for base.
func writeSegHeader(f *os.File, base uint64) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var head [segHeaderLen]byte
	copy(head[:], walMagic[:])
	binary.LittleEndian.PutUint64(head[len(walMagic):], base)
	if _, err := f.Write(head[:]); err != nil {
		return err
	}
	return f.Sync()
}

// newSegment creates and syncs an empty segment for base and makes it
// current (caller holds the lock or is the constructor).
func (w *WAL) newSegment(base uint64) error {
	f, err := os.OpenFile(w.segPath(base), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if err := writeSegHeader(f, base); err != nil {
		f.Close()
		return err
	}
	if err := w.syncDir(); err != nil {
		f.Close()
		return err
	}
	if w.seg != nil {
		w.seg.Close()
	}
	w.seg, w.segBase, w.segEnd, w.seq, w.unsynced = f, base, int64(segHeaderLen), base, 0
	return nil
}

// Close releases the segment file handle. Appending after Close fails.
// An attached blob tier is stopped first (its uploader briefly takes the
// WAL lock, so it must not be running when the handle goes away); blob
// uploads it had not finished resume on the next attach.
func (w *WAL) Close() error {
	w.mu.Lock()
	t := w.tier
	w.tier = nil
	w.mu.Unlock()
	if t != nil {
		t.Close()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.notifyLocked() // wake waiting tailers so they re-check state
	if w.seg == nil {
		return nil
	}
	err := w.seg.Sync()
	if cerr := w.seg.Close(); err == nil {
		err = cerr
	}
	w.seg = nil
	return err
}

// tierRef returns the attached blob tier, nil when none.
func (w *WAL) tierRef() *BlobTier {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tier
}

// notifyLocked fires the durability broadcast: the current watch channel
// is closed and forgotten; the next AppendWatch call allocates a fresh
// one. Caller holds the lock.
func (w *WAL) notifyLocked() {
	if w.watch != nil {
		close(w.watch)
		w.watch = nil
	}
}

// AppendWatch returns a channel that is closed the next time appended
// records become durable (or the state otherwise moves: a poisoning
// fsync failure, Close). Tailers use it to block for new records without
// polling: grab the channel, re-check Seq, then wait. On a closed WAL it
// returns nil — no append can ever fire again, so a tailer must stop
// instead of parking forever.
func (w *WAL) AppendWatch() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return nil
	}
	if w.watch == nil {
		w.watch = make(chan struct{})
	}
	return w.watch
}

// walLease is one registered retention floor; see Retain.
type walLease struct {
	w     *WAL
	floor uint64 // records with seq > floor must stay replayable
}

// Retain registers a segment-retention lease: until released, Checkpoint
// will not delete a log segment containing records with sequence number
// above seq — the holder can still ReplaySince(floor) without hitting a
// gap. Advance the floor as records are consumed so truncation can catch
// up; Release drops the guard entirely. Attached tailers (ship.go) hold
// one lease each; the lowest floor across leases wins.
func (w *WAL) Retain(seq uint64) Lease {
	w.mu.Lock()
	defer w.mu.Unlock()
	l := &walLease{w: w, floor: seq}
	if w.leases == nil {
		w.leases = make(map[*walLease]struct{})
	}
	w.leases[l] = struct{}{}
	return l
}

// Advance raises the lease floor (it never retreats): records at or
// below seq are no longer needed by this holder.
func (l *walLease) Advance(seq uint64) {
	l.w.mu.Lock()
	defer l.w.mu.Unlock()
	if seq > l.floor {
		l.floor = seq
	}
}

// Release drops the lease. Idempotent.
func (l *walLease) Release() {
	l.w.mu.Lock()
	defer l.w.mu.Unlock()
	delete(l.w.leases, l)
}

// retentionFloorLocked returns the lowest lease floor and whether any
// lease is registered. Caller holds the lock.
func (w *WAL) retentionFloorLocked() (uint64, bool) {
	if len(w.leases) == 0 {
		return 0, false
	}
	floor := ^uint64(0)
	for l := range w.leases {
		if l.floor < floor {
			floor = l.floor
		}
	}
	return floor, true
}

// Seq returns the sequence number of the last appended batch (0 before
// any append or checkpoint).
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// LiveLog reports the size of the live log — framed record bytes and
// record count appended since the last checkpoint, across every segment
// after it (size rotation can spread the live log over several). The
// Store's auto-checkpoint policy polls this after each logged commit.
func (w *WAL) LiveLog() (bytes int64, records int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return 0, 0
	}
	return w.liveBytes, int(w.seq - w.ckptSeq)
}

// AppendBatch implements WALBackend: it frames payload as the next record
// and appends it to the current segment. With SyncEvery ≤ 1 the append is
// fsync'd before returning — the batch is durable once AppendBatch
// returns; with group commit it becomes durable at the next flush.
func (w *WAL) AppendBatch(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return 0, errors.New("storage: WAL is closed")
	}
	if w.broken != nil {
		return 0, w.poisonErr()
	}
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("storage: WAL batch of %d bytes exceeds the record limit", len(payload))
	}
	seq := w.seq + 1
	frame := frameRecord(seq, payload)
	if _, err := w.seg.Write(frame); err != nil {
		// The record may be half-written. Roll the file back to the last
		// complete record so later appends cannot land after torn bytes
		// (recovery would silently discard them); if the rollback itself
		// fails, poison the handle — reopening repairs the file.
		if w.rollbackLocked() != nil {
			w.broken = err
		}
		return 0, fmt.Errorf("storage: WAL append: %w", err)
	}
	w.unsynced++
	if w.opt.SyncEvery <= 1 || w.unsynced >= w.opt.SyncEvery {
		if err := w.syncLocked(); err != nil {
			// The record's fate is undetermined: it is not a pending
			// write a later fsync may still land. Roll it back as far as
			// the file allows; the handle stays poisoned either way.
			_ = w.rollbackLocked()
			return 0, fmt.Errorf("storage: WAL sync: %w", err)
		}
	}
	w.segEnd += int64(len(frame))
	w.liveBytes += int64(len(frame))
	w.seq = seq
	if w.opt.SegmentBytes > 0 && w.segEnd >= int64(segHeaderLen)+w.opt.SegmentBytes {
		// Size rotation: seal the segment, continue in a fresh one. The
		// record above is already durable (or will be at the next group
		// flush — rotateLocked forces it), so a rotation failure is not a
		// commit failure: swallow it and retry on the next append.
		_ = w.rotateLocked()
	}
	return seq, nil
}

// rollbackLocked cuts the segment back to its last complete record and
// moves the write offset there. Caller holds the lock.
func (w *WAL) rollbackLocked() error {
	if err := w.seg.Truncate(w.segEnd); err != nil {
		return err
	}
	_, err := w.seg.Seek(w.segEnd, io.SeekStart)
	return err
}

// syncLocked fsyncs the segment and wakes tailers. A failed fsync poisons
// the handle: the kernel may have dropped the unwritten pages, so a retry
// that succeeds proves nothing, and only reopening — which re-reads what
// reached the disk — is trusted again. Tailers are woken either way, so
// a poisoned handle stops them now. Caller holds the lock.
func (w *WAL) syncLocked() error {
	defer w.notifyLocked()
	if err := w.seg.Sync(); err != nil {
		w.broken = err
		return err
	}
	w.unsynced = 0
	return nil
}

// poisonErr is the error a poisoned handle returns. Caller holds the lock.
func (w *WAL) poisonErr() error {
	return fmt.Errorf("storage: WAL poisoned by a failed append or fsync (reopen it): %w", w.broken)
}

// rotateLocked seals the current segment and opens a fresh one based at
// the current sequence number, kicking the blob tier (a sealed segment
// is an upload candidate). Caller holds the lock.
func (w *WAL) rotateLocked() error {
	if w.unsynced > 0 {
		// The sealed file must be durable before the tier may upload it.
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	if err := w.newSegment(w.seq); err != nil {
		return err
	}
	if w.tier != nil {
		w.tier.Kick()
	}
	return nil
}

// Sync flushes any group-committed appends to disk.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.poisonErr()
	}
	if w.seg == nil || w.unsynced == 0 {
		return nil
	}
	return w.syncLocked()
}

// ReplaySince implements WALBackend: it streams every durable batch with
// sequence number > since, in order. A torn or corrupt tail ends the
// replay silently (longest-durable-prefix semantics); a gap in the middle
// — records missing although later segments exist — is data loss and is
// reported as ErrCorruptWAL.
func (w *WAL) ReplaySince(since uint64, fn func(seq uint64, payload []byte) error) error {
	_, err := w.ReplayFromPos(TailPos{Seq: since}, fn)
	return err
}

// TailPos is a byte-accurate replay cursor: the last consumed sequence
// number plus the byte offset just past its record in the segment based
// at SegBase. The zero Off means "offset unknown — locate Seq by
// scanning", which is how a fresh replay starts.
type TailPos struct {
	SegBase uint64
	Off     int64
	Seq     uint64
}

// ReplayFromPos is ReplaySince with a resumable cursor: it streams every
// durable batch after pos.Seq and returns the position just past the
// last record it delivered (fn errors included — the returned position
// never re-covers a delivered record, so a windowed consumer can stop
// mid-sweep and resume without re-reading). When pos carries a byte
// offset and its segment still exists, the scan seeks straight to it —
// this is what keeps a live tailer O(new records) per sweep instead of
// re-decoding the whole current segment every wakeup; if the segment was
// truncated away (the consumer's lease had advanced past it), it falls
// back to the locate-by-scan path.
func (w *WAL) ReplayFromPos(pos TailPos, fn func(seq uint64, payload []byte) error) (TailPos, error) {
	w.mu.Lock()
	if w.broken != nil {
		// The files may hold a record whose fsync failed: shipping it
		// would replicate a commit the writer reported as failed.
		err := w.poisonErr()
		w.mu.Unlock()
		return pos, err
	}
	if w.seg != nil && w.unsynced > 0 {
		// Replay reads the files; make sure everything appended through
		// this handle is visible and durable first.
		if err := w.syncLocked(); err != nil {
			w.mu.Unlock()
			return pos, err
		}
	}
	local, err := w.listSegments()
	t := w.tier
	w.mu.Unlock()
	if err != nil {
		return pos, err
	}
	// The replay source is the union of local segment files and blob-tier
	// segments, preferring local (no fetch, and the live segment only
	// exists locally). A segment released from local disk is read back
	// through the tier — this is what keeps Retain leases and historical
	// replays working after ReleaseLocal reclaims the files.
	type segRef struct {
		base  uint64
		local bool
	}
	var segs []segRef
	if t != nil {
		have := make(map[uint64]bool, len(local))
		for _, b := range local {
			have[b] = true
		}
		for _, s := range t.manifestSegs() {
			if !have[s.Base] {
				segs = append(segs, segRef{base: s.Base})
			}
		}
	}
	for _, b := range local {
		segs = append(segs, segRef{base: b, local: true})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	since := pos.Seq
	start, resume := 0, false
	if pos.Off >= int64(segHeaderLen) {
		for i, s := range segs {
			if s.base == pos.SegBase {
				start, resume = i, true
				break
			}
		}
	}
	if !resume {
		// Drop segments that end at or before since: segment i covers
		// (segs[i], segs[i+1]] (the last one is open-ended).
		for i := 0; i+1 < len(segs); i++ {
			if segs[i+1].base <= since {
				start = i + 1
			}
		}
	}
	next := since // last sequence number delivered (or skipped)
	out := pos
	for i := start; i < len(segs); i++ {
		base := segs[i].base
		if base > next {
			return out, fmt.Errorf("%w: log gap: segment starts after %d but batch %d is missing",
				ErrCorruptWAL, base, next+1)
		}
		var (
			src    io.ReadSeeker
			closer io.Closer
		)
		if segs[i].local {
			f, ferr := os.Open(w.segPath(base))
			switch {
			case ferr == nil:
				src, closer = f, f
			case errors.Is(ferr, os.ErrNotExist) && t != nil && t.hasSeg(base):
				// Released between the listing and the open: fall through
				// to the tier below.
			default:
				return out, ferr
			}
		}
		if src == nil {
			data, ferr := t.fetchSegment(base)
			if ferr != nil {
				return out, ferr
			}
			src = bytes.NewReader(data)
		}
		herr := checkSegHeader(src, base)
		if herr != nil {
			if closer != nil {
				closer.Close()
			}
			if errors.Is(herr, ErrCorruptWAL) && i == len(segs)-1 {
				return out, nil // torn newest segment: nothing durable in it
			}
			return out, herr
		}
		// scanBase seeds scanRecords' expected-sequence counter: the
		// segment base normally, the resume position's sequence number
		// when seeking into the middle of the cursor's segment.
		scanBase, offBase := base, int64(segHeaderLen)
		if resume && base == pos.SegBase {
			if _, err := src.Seek(pos.Off, io.SeekStart); err != nil {
				if closer != nil {
					closer.Close()
				}
				return out, err
			}
			scanBase, offBase = since, pos.Off
		}
		good, serr := scanRecords(src, scanBase, func(seq uint64, payload []byte) error {
			if seq <= since {
				next = seq
				return nil
			}
			if seq != next+1 {
				return fmt.Errorf("%w: log gap: batch %d follows %d", ErrCorruptWAL, seq, next)
			}
			if err := fn(seq, payload); err != nil {
				return err
			}
			next = seq
			return nil
		})
		if closer != nil {
			closer.Close()
		}
		// good counts only fully-consumed records (a record whose fn
		// errored is excluded), so the cursor lands exactly after the
		// last delivered one.
		out = TailPos{SegBase: base, Off: offBase + good, Seq: next}
		if serr != nil {
			return out, serr
		}
	}
	return out, nil
}

// Checkpoint implements WALBackend: it writes snapshot as the checkpoint
// covering every batch appended so far (temp-write + rename + dir sync,
// so a crash never exposes a torn checkpoint) and truncates the log — a
// fresh segment starts after the checkpointed sequence number and the
// older segments are deleted. Returns the checkpoint's version (= the
// sequence number it covers).
func (w *WAL) Checkpoint(snapshot []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return 0, errors.New("storage: WAL is closed")
	}
	if w.broken != nil {
		return 0, w.poisonErr()
	}
	// Batches the checkpoint covers must be durable before the checkpoint
	// claims to cover them.
	if w.unsynced > 0 {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	seq := w.seq
	tmp, err := os.CreateTemp(w.dir, "ckpt-*.tmp")
	if err != nil {
		return 0, err
	}
	if _, err := tmp.Write(snapshot); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), w.ckptPath(seq)); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := w.syncDir(); err != nil {
		return 0, err
	}
	w.ckptSeq, w.liveBytes = seq, 0
	// Log truncation: switch to a fresh segment starting after seq, then
	// drop the now-redundant older segments. Skip the switch when the
	// current segment is already empty at seq (repeat checkpoint).
	if seq > w.segBase {
		if err := w.newSegment(seq); err != nil {
			return 0, err
		}
	}
	// The retention sweep runs on every checkpoint — including a repeat
	// checkpoint that rotated nothing — so a segment a lease kept back is
	// reclaimed by the first checkpoint after the lease advances past it
	// or is released, even when the leader has gone quiet and appends
	// nothing in between. (Before this, a lease released during
	// quiescence stranded its segments forever: repeat checkpoints
	// skipped truncation outright.)
	segs, err := w.listSegments()
	if err != nil {
		return 0, err
	}
	// Retention guard: segment i covers records (segs[i], segs[i+1]]
	// (the live segment at w.segBase == seq is always in the list, so
	// every older segment has a successor). A segment is disposable
	// only when every record it holds is at or below the lowest lease
	// floor — an attached tailer mid-catch-up still needs everything
	// above its floor, checkpoint or not. With a blob tier attached, two
	// more rules apply: never delete a segment the tier has not made
	// durable (the local file may be the only copy of history the tier
	// promises to keep forever), and — under ReleaseLocal — leases stop
	// blocking deletion, because a leased replay transparently fetches
	// released segments back from the tier.
	floor, guarded := w.retentionFloorLocked()
	removed := false
	for i, base := range segs {
		if base >= seq {
			continue // the live segment
		}
		end := seq
		if i+1 < len(segs) {
			end = segs[i+1]
		}
		if w.tier != nil && !w.tier.segDurableFlushed(base) {
			continue // the blob tier still needs the local file
		}
		if guarded && end > floor && (w.tier == nil || !w.tier.opt.ReleaseLocal) {
			continue // a tailer still needs records in (base, end]
		}
		if err := os.Remove(w.segPath(base)); err != nil {
			return 0, err
		}
		removed = true
	}
	if removed {
		if err := w.syncDir(); err != nil {
			return 0, err
		}
	}
	if w.tier != nil {
		w.tier.Kick() // a new checkpoint (and maybe a sealed segment) to upload
	}
	return seq, nil
}

// sealedSeg is one local sealed segment, as the blob tier sees it.
type sealedSeg struct {
	base, end uint64
	path      string
}

// sealedLocal snapshots the local artifacts the blob tier may upload:
// sealed segments (every local segment below the live one) and local
// checkpoint versions. Listing errors yield empty results — the uploader
// finds nothing to do and retries on the next kick.
func (w *WAL) sealedLocal() (segs []sealedSeg, segBase uint64, ckpts []uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	segBase = w.segBase
	bases, err := w.listSegments()
	if err != nil {
		return nil, segBase, nil
	}
	for i, base := range bases {
		if base >= segBase {
			continue
		}
		end := segBase
		if i+1 < len(bases) {
			end = bases[i+1]
		}
		segs = append(segs, sealedSeg{base: base, end: end, path: w.segPath(base)})
	}
	ckpts, err = w.listCheckpoints()
	if err != nil {
		return segs, segBase, nil
	}
	return segs, segBase, ckpts
}

// releaseLocal deletes local sealed segment files that the blob tier
// holds durably AND that a blob-durable checkpoint covers — so even if
// every blob object but the newest checkpoint vanished, local recovery
// through the tier would still reach the same state. Called by the
// tier's upload pass when ReleaseLocal is set.
func (w *WAL) releaseLocal(t *BlobTier) error {
	ck, ok := t.flushedNewestCkpt()
	if !ok {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return nil
	}
	segs, err := w.listSegments()
	if err != nil {
		return err
	}
	removed := false
	for i, base := range segs {
		if base >= w.segBase {
			continue
		}
		end := w.segBase
		if i+1 < len(segs) {
			end = segs[i+1]
		}
		if end > ck || !t.segDurableFlushed(base) {
			continue
		}
		if err := os.Remove(w.segPath(base)); err != nil {
			return err
		}
		t.noteReleased()
		removed = true
	}
	if removed {
		return w.syncDir()
	}
	return nil
}

// RetentionStats reports the WAL's current retention state; see the
// RetentionStats type (tier.go).
func (w *WAL) RetentionStats() RetentionStats {
	w.mu.Lock()
	rs := RetentionStats{Seq: w.seq, CheckpointSeq: w.ckptSeq}
	if floor, guarded := w.retentionFloorLocked(); guarded {
		rs.LeaseFloor = floor
	}
	rs.Leases = len(w.leases)
	segs, _ := w.listSegments()
	t := w.tier
	w.mu.Unlock()
	rs.LocalSegments = len(segs)
	if len(segs) > 0 {
		rs.OldestLocalBase = segs[0]
	}
	if t != nil {
		ts := t.Stats()
		rs.Tier = &ts
	}
	return rs
}

// ------------------------------------------------------ checkpoint reads

// Get implements WALBackend over checkpoint snapshots. A checkpoint missing
// locally (pruned after upload) is fetched back from the blob tier.
func (w *WAL) Get(version uint64) ([]byte, error) {
	data, err := os.ReadFile(w.ckptPath(version))
	if errors.Is(err, os.ErrNotExist) {
		if t := w.tierRef(); t != nil {
			return t.fetchCheckpoint(version)
		}
		return nil, fmt.Errorf("%w: %d", ErrNoVersion, version)
	}
	return data, err
}

// checkpointVersions merges local checkpoint versions with the blob
// tier's (ascending, deduplicated) — the tier makes checkpoint history
// bottomless, so addressable versions outlive local pruning.
func (w *WAL) checkpointVersions() ([]uint64, error) {
	cks, err := w.listCheckpoints()
	if err != nil {
		return nil, err
	}
	t := w.tierRef()
	if t == nil {
		return cks, nil
	}
	seen := make(map[uint64]bool, len(cks))
	for _, v := range cks {
		seen[v] = true
	}
	for _, v := range t.manifestCkptSeqs() {
		if !seen[v] {
			cks = append(cks, v)
		}
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i] < cks[j] })
	return cks, nil
}

// Latest implements WALBackend: the newest checkpoint snapshot. Batches
// appended after it are not reflected — recovery is Latest + ReplaySince
// (the Store's LoadLatest does exactly that for WAL backends).
func (w *WAL) Latest() (uint64, []byte, error) {
	cks, err := w.checkpointVersions()
	if err != nil {
		return 0, nil, err
	}
	if len(cks) == 0 {
		return 0, nil, ErrNoVersion
	}
	v := cks[len(cks)-1]
	data, err := w.Get(v)
	return v, data, err
}

// Versions implements WALBackend: the checkpoint versions, ascending —
// blob-tier checkpoints included.
func (w *WAL) Versions() ([]uint64, error) { return w.checkpointVersions() }

// Prune implements WALBackend: drops LOCAL checkpoints strictly below keep,
// always retaining the newest one (the log after it is the live tail).
// Blob-tier copies are untouched — the tier's history is bottomless by
// design, so a pruned version stays addressable through Get.
func (w *WAL) Prune(keep uint64) error {
	cks, err := w.listCheckpoints()
	if err != nil || len(cks) == 0 {
		return err
	}
	newest := cks[len(cks)-1]
	for _, v := range cks {
		if v < keep && v != newest {
			if err := os.Remove(w.ckptPath(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ------------------------------------------------------------- dir utils

func (w *WAL) segPath(base uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("wal-%016d.log", base))
}

func (w *WAL) ckptPath(seq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("ckpt-%016d.ltsnap", seq))
}

// listSegments returns the segment base numbers, ascending.
func (w *WAL) listSegments() ([]uint64, error) {
	return w.scanDir("wal-%016d.log")
}

// listCheckpoints returns the checkpoint versions, ascending.
func (w *WAL) listCheckpoints() ([]uint64, error) {
	return w.scanDir("ckpt-%016d.ltsnap")
}

func (w *WAL) scanDir(pattern string) ([]uint64, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	out := []uint64{}
	for _, e := range entries {
		var v uint64
		if n, err := fmt.Sscanf(e.Name(), pattern, &v); err == nil && n == 1 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// syncDir makes directory-entry changes (create/rename/delete) durable.
func (w *WAL) syncDir() error {
	dir, err := os.Open(w.dir)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
