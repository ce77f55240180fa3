package storage_test

// Unit tests for the log-shipping seam (ship.go): catch-up + live tail
// delivery, the segment-retention guard that keeps a leader Checkpoint
// from dropping segments a slow tailer still needs (the PR's regression
// for WAL.Prune/auto-checkpoint truncation assuming no external
// ReplaySince readers), reclamation once the tailer advances, and the
// close/unblock contract.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ltree-db/ltree/internal/storage"
)

// payload builds a distinguishable batch payload.
func payload(i int) []byte { return []byte(fmt.Sprintf("batch-%03d", i)) }

// appendN appends payloads [from, to] to the WAL.
func appendN(t *testing.T, w *storage.WAL, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if _, err := w.AppendBatch(payload(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// segmentCount counts wal-*.log files in dir.
func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && filepath.Ext(e.Name()) == ".log" {
			n++
		}
	}
	return n
}

func TestTailerCatchUpThenLiveTail(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 5)

	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	tail := sh.Tail(0)
	defer tail.Close()

	// Catch-up: the five pre-existing batches stream in order.
	for i := 1; i <= 5; i++ {
		seq, got, err := tail.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if seq != uint64(i) || !bytes.Equal(got, payload(i)) {
			t.Fatalf("next %d: got seq=%d payload=%q", i, seq, got)
		}
	}
	if _, _, ok, err := tail.TryNext(); err != nil || ok {
		t.Fatalf("TryNext at the durable end: ok=%v err=%v", ok, err)
	}

	// Live tail: a concurrent appender wakes the blocked Next.
	go func() {
		time.Sleep(10 * time.Millisecond)
		for i := 6; i <= 8; i++ {
			if _, err := w.AppendBatch(payload(i)); err != nil {
				return
			}
		}
	}()
	for i := 6; i <= 8; i++ {
		seq, got, err := tail.Next()
		if err != nil {
			t.Fatalf("live next %d: %v", i, err)
		}
		if seq != uint64(i) || !bytes.Equal(got, payload(i)) {
			t.Fatalf("live next %d: got seq=%d payload=%q", i, seq, got)
		}
	}
	if got := tail.Seq(); got != 8 {
		t.Fatalf("tailer seq = %d, want 8", got)
	}
}

// TestTailerRetentionSurvivesCheckpoint is the regression for the
// truncation guard: before it, Checkpoint deleted every pre-checkpoint
// segment outright, so a tailer mid-catch-up found a log gap and died
// with ErrCorruptWAL. With the lease in place the slow tailer keeps
// streaming across the checkpoint, and the held-back segments are
// reclaimed by a later checkpoint once the tailer has advanced.
func TestTailerRetentionSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 6)

	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	tail := sh.Tail(0)
	defer tail.Close()

	// Consume only the first two batches, then checkpoint the leader:
	// the old segment still holds batches 3–6 the tailer needs.
	for i := 1; i <= 2; i++ {
		if _, _, err := tail.Next(); err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
	}
	if _, err := w.Checkpoint([]byte("ckpt-at-6")); err != nil {
		t.Fatal(err)
	}
	if n := segmentCount(t, dir); n != 2 {
		t.Fatalf("checkpoint under an active lease kept %d segments, want 2 (old + live)", n)
	}
	appendN(t, w, 7, 8)

	// The slow tailer crosses the checkpoint boundary without a gap.
	for i := 3; i <= 8; i++ {
		seq, got, err := tail.Next()
		if err != nil {
			t.Fatalf("next %d across checkpoint: %v", i, err)
		}
		if seq != uint64(i) || !bytes.Equal(got, payload(i)) {
			t.Fatalf("next %d: got seq=%d payload=%q", i, seq, got)
		}
	}

	// Once the tailer has advanced past the old segment, the next
	// checkpoint reclaims it.
	if _, err := w.Checkpoint([]byte("ckpt-at-8")); err != nil {
		t.Fatal(err)
	}
	if n := segmentCount(t, dir); n != 1 {
		t.Fatalf("checkpoint after the tailer advanced kept %d segments, want 1", n)
	}
}

// TestTailerGapAfterTruncation pins the failure mode the guard prevents:
// a tailer attached below what the log still holds must report the gap
// loudly, not silently skip records.
func TestTailerGapAfterTruncation(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 4)
	if _, err := w.Checkpoint([]byte("ckpt")); err != nil { // truncates 1–4 (no lease yet)
		t.Fatal(err)
	}
	appendN(t, w, 5, 6)

	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	tail := sh.Tail(2) // records 3–4 are gone
	defer tail.Close()
	if _, _, err := tail.Next(); !errors.Is(err, storage.ErrCorruptWAL) {
		t.Fatalf("tailing into a truncated range: err=%v, want ErrCorruptWAL gap", err)
	}
}

func TestTailLatestBootstrap(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	// No checkpoint yet: bootstrap must refuse rather than invent state.
	if _, _, _, err := sh.TailLatest(); !errors.Is(err, storage.ErrNoVersion) {
		t.Fatalf("TailLatest on a checkpoint-less WAL: err=%v, want ErrNoVersion", err)
	}

	appendN(t, w, 1, 3)
	if _, err := w.Checkpoint([]byte("snapshot-at-3")); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 4, 5)

	seq, snap, tail, err := sh.TailLatest()
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if seq != 3 || string(snap) != "snapshot-at-3" {
		t.Fatalf("TailLatest = (%d, %q), want (3, snapshot-at-3)", seq, snap)
	}
	for i := 4; i <= 5; i++ {
		gotSeq, got, err := tail.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if gotSeq != uint64(i) || !bytes.Equal(got, payload(i)) {
			t.Fatalf("next %d: got seq=%d payload=%q", i, gotSeq, got)
		}
	}
}

func TestTailerCloseUnblocksNext(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	tail := sh.Tail(0)

	errc := make(chan error, 1)
	go func() {
		_, _, err := tail.Next()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tail.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, storage.ErrTailerClosed) {
			t.Fatalf("unblocked Next returned %v, want ErrTailerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock a waiting Next")
	}
	// Closed stays closed.
	if _, _, _, err := tail.TryNext(); !errors.Is(err, storage.ErrTailerClosed) {
		t.Fatalf("TryNext after Close: %v", err)
	}
	if err := tail.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTailerWindowCrossingDrain streams far more records than one fill
// window (256) through a tailer, with a checkpoint rotation in the
// middle — exercising the byte-cursor resume path: a window that closes
// mid-segment must resume exactly after the last buffered record, never
// duplicating or skipping one.
func TestTailerWindowCrossingDrain(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const total = 600
	appendN(t, w, 1, total/2)
	if _, err := w.Checkpoint([]byte("mid")); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, total/2+1, total)

	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	// Attach at 0: the pre-checkpoint segment is gone (no lease existed
	// when the checkpoint ran), so the tailer must report the gap…
	gapTail := sh.Tail(0)
	if _, _, err := gapTail.Next(); !errors.Is(err, storage.ErrCorruptWAL) {
		t.Fatalf("tail below the truncation: err=%v, want gap", err)
	}
	gapTail.Close()
	// …while attaching at the checkpoint streams the rest, in order,
	// across several fill windows.
	tail := sh.Tail(total / 2)
	defer tail.Close()
	for i := total/2 + 1; i <= total; i++ {
		seq, got, err := tail.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if seq != uint64(i) || !bytes.Equal(got, payload(i)) {
			t.Fatalf("next %d: got seq=%d payload=%q", i, seq, got)
		}
	}
	if _, _, ok, err := tail.TryNext(); err != nil || ok {
		t.Fatalf("drained tailer: ok=%v err=%v", ok, err)
	}
}

// TestTailerSourceClosed: closing the WAL must unpark a waiting tailer
// with ErrSourceClosed (not leave it wedged forever), after delivering
// everything durable.
func TestTailerSourceClosed(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 2)
	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	tail := sh.Tail(0)
	defer tail.Close()
	for i := 1; i <= 2; i++ {
		if _, _, err := tail.Next(); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := tail.Next()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, storage.ErrSourceClosed) {
			t.Fatalf("parked Next after WAL.Close: err=%v, want ErrSourceClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WAL.Close left the tailer parked")
	}
	if _, _, err := tail.Next(); !errors.Is(err, storage.ErrSourceClosed) {
		t.Fatalf("Next on a closed source: %v", err)
	}
}

// TestTailerPreservesGroupCommit: a parked tailer must not wake per
// group-commit buffered append (its sweep would fsync the segment,
// degrading a SyncEvery>1 leader to fsync-per-commit); the broadcast
// fires only when records become durable.
func TestTailerPreservesGroupCommit(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	tail := sh.Tail(0)
	defer tail.Close()

	got := make(chan uint64, 1)
	go func() {
		seq, _, err := tail.Next()
		if err != nil {
			return
		}
		got <- seq
	}()
	time.Sleep(20 * time.Millisecond) // let the tailer park
	if _, err := w.AppendBatch(payload(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case seq := <-got:
		t.Fatalf("buffered (unsynced) append woke the parked tailer (seq %d)", seq)
	case <-time.After(50 * time.Millisecond):
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case seq := <-got:
		if seq != 1 {
			t.Fatalf("delivered seq %d, want 1", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sync did not wake the parked tailer")
	}
}

// TestTailerGroupCommitVisibility: records appended under group commit
// (unsynced) must still reach a tailer — the sweep syncs before reading.
func TestTailerGroupCommitVisibility(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 3) // all three sit in the unsynced window
	sh, err := storage.NewShipper(w)
	if err != nil {
		t.Fatal(err)
	}
	tail := sh.Tail(0)
	defer tail.Close()
	for i := 1; i <= 3; i++ {
		seq, got, err := tail.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if seq != uint64(i) || !bytes.Equal(got, payload(i)) {
			t.Fatalf("next %d: got seq=%d payload=%q", i, seq, got)
		}
	}
}
