package ltree

import (
	"path/filepath"
	"testing"
)

// countLogRecords replays the live tail of a WAL and counts its records.
func countLogRecords(t *testing.T, w WALBackend) int {
	t.Helper()
	v, _, err := w.Latest()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := w.ReplaySince(v, func(uint64, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAutoCheckpointByRecords: with a record-count policy, the store
// checkpoints on its own once the live log holds that many batches, and
// the log actually truncates — the replay tail shrinks back to zero.
func TestAutoCheckpointByRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWALBackend(filepath.Join(dir, "wal"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st, err := OpenString(`<r><a/></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithWAL(w, AutoCheckpoint(0, 4)); err != nil {
		t.Fatal(err)
	}
	baseline, err := w.Versions()
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := st.InsertElement(st.Root(), 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := w.Versions(); err != nil || len(got) != len(baseline) {
		t.Fatalf("checkpointed before the threshold: %d versions (was %d), err %v", len(got), len(baseline), err)
	}
	if n := countLogRecords(t, w); n != 3 {
		t.Fatalf("live log holds %d records, want 3", n)
	}

	// The 4th commit crosses the threshold: a checkpoint must appear and
	// the live log must truncate.
	if _, err := st.InsertElement(st.Root(), 0, "x"); err != nil {
		t.Fatal(err)
	}
	got, err := w.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(baseline)+1 {
		t.Fatalf("auto-checkpoint did not fire: %d versions, want %d", len(got), len(baseline)+1)
	}
	if n := countLogRecords(t, w); n != 0 {
		t.Fatalf("log did not truncate: %d records remain", n)
	}

	// Recovery from the auto-checkpointed WAL reproduces the live store.
	rec, err := LoadLatest(w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.String() != st.String() || rec.Check() != nil {
		t.Fatal("recovered store diverges from the live one")
	}
}

// TestAutoCheckpointByBytes: the byte-threshold arm fires independently.
func TestAutoCheckpointByBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWALBackend(filepath.Join(dir, "wal"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st, err := OpenString(`<r><a/></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithWAL(w, AutoCheckpoint(1, 0)); err != nil { // any append trips it
		t.Fatal(err)
	}
	baseline, err := w.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertElement(st.Root(), 0, "x"); err != nil {
		t.Fatal(err)
	}
	got, err := w.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(baseline)+1 {
		t.Fatal("byte-threshold auto-checkpoint did not fire")
	}
	if n := countLogRecords(t, w); n != 0 {
		t.Fatalf("log did not truncate: %d records remain", n)
	}
}

// TestAutoCheckpointOffByDefault: without the option the log only grows.
func TestAutoCheckpointOffByDefault(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWALBackend(filepath.Join(dir, "wal"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st, err := OpenString(`<r><a/></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithWAL(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := st.InsertElement(st.Root(), 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if n := countLogRecords(t, w); n != 10 {
		t.Fatalf("live log holds %d records, want 10 (no auto-checkpoint by default)", n)
	}
}

// TestAutoCheckpointSurvivesRecovery: the policy is per-open
// configuration, so LoadLatest takes the same option WithWAL does — a
// recovered store handed it keeps checkpointing; without the option on
// recovery the checkpoint list would stay frozen forever.
func TestAutoCheckpointSurvivesRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := NewWALBackend(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenString(`<r><a/></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithWAL(w, AutoCheckpoint(0, 4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := st.InsertElement(st.Root(), 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = NewWALBackend(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec, err := LoadLatest(w, AutoCheckpoint(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	before, err := w.Versions()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // 2 recovered + 6 new: past the threshold
		if _, err := rec.InsertElement(rec.Root(), 0, "y"); err != nil {
			t.Fatal(err)
		}
	}
	after, err := w.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("recovered store never checkpointed: versions %v before, %v after", before, after)
	}
	if _, records := w.(liveLogger).LiveLog(); records >= 4 {
		t.Fatalf("live log holds %d records after recovery + commits, want < 4", records)
	}

	// The option is validated on recovery exactly as on attach.
	if _, err := LoadLatest(noLiveLog{w}, AutoCheckpoint(0, 4)); err == nil {
		t.Fatal("LoadLatest accepted AutoCheckpoint on a backend without LiveLog")
	}
}

// noLiveLog hides the backend's LiveLog capability.
type noLiveLog struct{ WALBackend }
