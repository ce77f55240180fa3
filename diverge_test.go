package ltree_test

import (
	"bytes"
	"errors"
	"testing"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/storage"
)

// TestStoreDetectsDivergentApply injects a divergent batch — a shipped
// payload whose trailing root-hash stamp no longer matches the index
// content it produces — and checks that every apply seam refuses it
// with ErrReplicaDiverged: WAL replay on LoadLatest, and a follower
// tailing the log. The stamp is the last op of each payload and its 32
// raw bytes end the frame, so flipping the payload's final byte forges
// a leader whose index content disagrees with the replica's recompute;
// AppendBatch re-frames with fresh CRCs, so nothing else rejects it
// first.
func TestStoreDetectsDivergentApply(t *testing.T) {
	// Leader A: seed plus one committed batch; capture the shipped
	// payload.
	stA, wA := openLeader(t, t.TempDir())
	if err := stA.Update(func(b *ltree.Batch) error {
		_, err := b.InsertXML(stA.Elements("people")[0], 0, "<person>carol</person>")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := wA.Sync(); err != nil {
		t.Fatal(err)
	}
	var payload []byte
	if err := wA.ReplaySince(0, func(seq uint64, p []byte) error {
		payload = append([]byte(nil), p...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(payload) == 0 {
		t.Fatal("no payload captured from leader WAL")
	}
	if err := wA.Close(); err != nil {
		t.Fatal(err)
	}

	// seedWAL builds a fresh identically-seeded WAL directory and
	// appends one payload behind the store's back.
	seedWAL := func(p []byte) string {
		dir := t.TempDir()
		_, w := openLeader(t, dir)
		if _, err := w.AppendBatch(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// Control: the untampered payload replays cleanly and reproduces
	// leader A's exact index content.
	clean := seedWAL(payload)
	wClean, err := storage.OpenWAL(clean, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wClean.Close()
	stClean, err := ltree.LoadLatest(wClean)
	if err != nil {
		t.Fatalf("control replay: %v", err)
	}
	if stClean.RootHash() != stA.RootHash() {
		t.Fatalf("control replay root %x != leader root %x", stClean.RootHash(), stA.RootHash())
	}

	// Tamper: flip the last byte — the tail of the payload's 32-byte
	// root stamp.
	tampered := append([]byte(nil), payload...)
	tampered[len(tampered)-1] ^= 0xff

	t.Run("replay", func(t *testing.T) {
		dir := seedWAL(tampered)
		w, err := storage.OpenWAL(dir, storage.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := ltree.LoadLatest(w); !errors.Is(err, ltree.ErrReplicaDiverged) {
			t.Fatalf("replaying a divergent stamp: got %v, want ErrReplicaDiverged", err)
		}
	})

	t.Run("follower", func(t *testing.T) {
		dir := seedWAL(tampered)
		w, err := storage.OpenWAL(dir, storage.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		f, err := ltree.OpenFollower(w)
		if err == nil {
			defer f.Close()
			err = f.WaitFor(w.Seq(), waitTimeout)
		}
		if !errors.Is(err, ltree.ErrReplicaDiverged) {
			t.Fatalf("follower applying a divergent stamp: got %v, want ErrReplicaDiverged", err)
		}
	})
}

// TestRestoreSeamsVerifyStampedRoot forges a checkpoint whose stamped
// index root does not describe its document and requires every seam
// that turns snapshot bytes into a store to refuse it with
// ErrReplicaDiverged — none may hand back a store (or a Running
// follower) answering queries from state the writer never vouched for.
func TestRestoreSeamsVerifyStampedRoot(t *testing.T) {
	bs := ltree.NewBlobMemory()
	st, w, tier, commit := blobLeader(t, bs, false)
	defer w.Close()
	commit()

	wrong := st.RootHash()
	wrong[0] ^= 0xff
	var forged bytes.Buffer
	if err := st.Document().SnapshotStamped(&forged, [32]byte(wrong)); err != nil {
		t.Fatal(err)
	}
	seq, err := w.Checkpoint(forged.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	barrierT(t, tier) // the blob tier now serves the forged checkpoint too

	closing := func(f *ltree.Follower, err error) error {
		if err == nil {
			f.Close()
		}
		return err
	}
	for _, seam := range []struct {
		name string
		open func() error
	}{
		{"Restore", func() error {
			_, err := ltree.Restore(bytes.NewReader(forged.Bytes()))
			return err
		}},
		{"LoadLatest", func() error { _, err := ltree.LoadLatest(w); return err }},
		{"LoadAt", func() error { _, err := ltree.LoadAt(w, seq); return err }},
		{"OpenFollower", func() error { return closing(ltree.OpenFollower(w)) }},
		{"OpenFollowerSeeded", func() error { return closing(ltree.OpenFollowerSeeded(w, bs, "leader")) }},
	} {
		t.Run(seam.name, func(t *testing.T) {
			if err := seam.open(); !errors.Is(err, ltree.ErrReplicaDiverged) {
				t.Fatalf("forged checkpoint root: got %v, want ErrReplicaDiverged", err)
			}
		})
	}
}
