package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// payloadN builds a distinguishable fake batch payload.
func payloadN(i int) []byte { return []byte(fmt.Sprintf("batch-%04d", i)) }

// collect replays everything after since into a map seq→payload.
func collect(t *testing.T, w *WAL, since uint64) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	if err := w.ReplaySince(since, func(seq uint64, payload []byte) error {
		out[seq] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("ReplaySince(%d): %v", since, err)
	}
	return out
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 5; i++ {
		seq, err := w.AppendBatch(payloadN(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	got := collect(t, w, 0)
	if len(got) != 5 {
		t.Fatalf("replayed %d batches, want 5", len(got))
	}
	for i := 1; i <= 5; i++ {
		if got[uint64(i)] != string(payloadN(i)) {
			t.Fatalf("batch %d replayed as %q", i, got[uint64(i)])
		}
	}
	if got := collect(t, w, 3); len(got) != 2 || got[4] == "" || got[5] == "" {
		t.Fatalf("ReplaySince(3) = %v, want batches 4 and 5", got)
	}
}

func TestWALReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := w.AppendBatch(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Seq() != 3 {
		t.Fatalf("reopened seq = %d, want 3", w2.Seq())
	}
	if seq, err := w2.AppendBatch(payloadN(4)); err != nil || seq != 4 {
		t.Fatalf("append after reopen: seq %d, err %v", seq, err)
	}
	if got := collect(t, w2, 0); len(got) != 4 {
		t.Fatalf("replayed %d batches after reopen, want 4", len(got))
	}
}

func TestWALCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 3; i++ {
		if _, err := w.AppendBatch(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := w.Checkpoint([]byte("snapshot-at-3"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("checkpoint version %d, want 3", v)
	}
	// The old segment is gone, the checkpoint readable as a version.
	if data, err := w.Get(3); err != nil || string(data) != "snapshot-at-3" {
		t.Fatalf("Get(3) = %q, %v", data, err)
	}
	if got := collect(t, w, 3); len(got) != 0 {
		t.Fatalf("log not truncated: replay after checkpoint returned %v", got)
	}
	segs, _ := w.listSegments()
	if !reflect.DeepEqual(segs, []uint64{3}) {
		t.Fatalf("segments after checkpoint: %v, want [3]", segs)
	}
	// Appends continue after the checkpoint and replay from it.
	if seq, err := w.AppendBatch(payloadN(4)); err != nil || seq != 4 {
		t.Fatalf("append after checkpoint: seq %d, err %v", seq, err)
	}
	if got := collect(t, w, 3); len(got) != 1 || got[4] != string(payloadN(4)) {
		t.Fatalf("replay after checkpoint = %v", got)
	}
}

func TestWALBackendVersions(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := w.Latest(); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("Latest on empty WAL: %v, want ErrNoVersion", err)
	}
	if _, err := w.Checkpoint([]byte("base")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(payloadN(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Checkpoint([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(payloadN(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Checkpoint([]byte("two")); err != nil {
		t.Fatal(err)
	}
	vs, err := w.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, []uint64{0, 1, 2}) {
		t.Fatalf("versions %v, want [0 1 2]", vs)
	}
	v, data, err := w.Latest()
	if err != nil || v != 2 || string(data) != "two" {
		t.Fatalf("Latest = %d %q %v", v, data, err)
	}
	if err := w.Prune(2); err != nil {
		t.Fatal(err)
	}
	vs, _ = w.Versions()
	if !reflect.DeepEqual(vs, []uint64{2}) {
		t.Fatalf("versions after prune: %v, want [2]", vs)
	}
}

func TestWALGroupCommitSync(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 7; i++ {
		if _, err := w.AppendBatch(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// All appends visible despite never hitting the SyncEvery threshold.
	if got := collect(t, w, 0); len(got) != 7 {
		t.Fatalf("replayed %d, want 7", len(got))
	}
}

func TestWALReopenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := w.AppendBatch(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	segs, _ := w.listSegments()
	seg := w.segPath(segs[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its final 3 bytes.
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Seq() != 2 {
		t.Fatalf("seq after torn-tail repair = %d, want 2", w2.Seq())
	}
	// The torn bytes are physically gone and the next append reuses seq 3.
	st, _ := os.Stat(seg)
	if st.Size() >= int64(len(data)) {
		t.Fatalf("torn tail not truncated: %d >= %d", st.Size(), len(data))
	}
	if seq, err := w2.AppendBatch([]byte("replacement")); err != nil || seq != 3 {
		t.Fatalf("append after repair: seq %d, err %v", seq, err)
	}
	got := collect(t, w2, 0)
	if len(got) != 3 || got[3] != "replacement" {
		t.Fatalf("replay after repair = %v", got)
	}
}

func TestWALReopenRepairsTornHeader(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs, _ := w.listSegments()
	seg := w.segPath(segs[0])
	if err := os.WriteFile(seg, []byte("LTW"), 0o644); err != nil { // torn mid-header
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Seq() != 0 {
		t.Fatalf("seq after header repair = %d, want 0", w2.Seq())
	}
	if _, err := w2.AppendBatch([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w2, 0); len(got) != 1 {
		t.Fatalf("replay after header repair = %v", got)
	}
}

func TestWALCorruptRecordEndsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := w.AppendBatch(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := w.listSegments()
	seg := w.segPath(segs[0])
	data, _ := os.ReadFile(seg)
	// Flip a byte inside the second record's payload.
	recLen := recordHeaderLen + len(payloadN(1))
	off := segHeaderLen + recLen + recordHeaderLen + 2
	data[off] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// Only batch 1 survives: the corrupt record and everything after it
	// are discarded (and truncated away by the reopen repair).
	if got := collect(t, w2, 0); len(got) != 1 || got[1] != string(payloadN(1)) {
		t.Fatalf("replay after corruption = %v, want just batch 1", got)
	}
	if w2.Seq() != 1 {
		t.Fatalf("seq after corruption repair = %d, want 1", w2.Seq())
	}
}

func TestOpsCodecRoundtrip(t *testing.T) {
	sub := NodeRec{Kind: kindElement, Tag: "item", Attrs: []AttrRec{{Name: "id", Value: "7"}},
		Children: []NodeRec{{Kind: kindText, Data: "hello"}}}
	ops := []Op{
		{Kind: OpInsert, Path: []uint32{0, 2}, Idx: 1, Labels: []uint64{10, 12, 99}, Sub: &sub},
		{Kind: OpDelete, Path: []uint32{3}, Labels: []uint64{42}},
		{Kind: OpMove, Path: []uint32{1, 0}, Dst: []uint32{}, Idx: 0, Labels: []uint64{5, 6}},
		{Kind: OpCompact},
	}
	payload, err := EncodeOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOps(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, ops)
	}
	// Trailing garbage must be rejected.
	if _, err := DecodeOps(append(payload, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Non-increasing label runs must be rejected by the encoder.
	if _, err := EncodeOps([]Op{{Kind: OpDelete, Path: nil, Labels: []uint64{42}}, {Kind: OpInsert, Path: nil, Labels: []uint64{5, 5}, Sub: &sub}}); err == nil {
		t.Fatal("non-increasing labels encoded")
	}
}

func TestWALSweepsOrphanedCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	// A crash between CreateTemp and Rename leaves a ckpt-*.tmp behind.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-123456789.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(filepath.Join(dir, "ckpt-123456789.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphaned checkpoint temp file not swept on open")
	}
}

func TestWALForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Checkpoint([]byte("s")); err != nil {
		t.Fatal(err)
	}
	// Leftover temp files and strangers must not be parsed as versions.
	for _, name := range []string{"ckpt-123.tmp", "notes.txt", "wal-x.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := w.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, []uint64{0}) {
		t.Fatalf("versions with foreign files: %v, want [0]", vs)
	}
}

func TestScanRecordsStopsAtGap(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(frameRecord(1, []byte("a")))
	buf.Write(frameRecord(3, []byte("c"))) // gap: 2 missing
	n := 0
	good, err := scanRecords(bytes.NewReader(buf.Bytes()), 0, func(seq uint64, payload []byte) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered %d records across a gap, want 1", n)
	}
	if want := int64(recordHeaderLen + 1); good != want {
		t.Fatalf("durable prefix %d, want %d", good, want)
	}
}
