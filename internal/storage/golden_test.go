package storage_test

// Golden files: a v2 binary snapshot of a document with an edit history
// (so tombstones and maintenance relabelings are baked in) is checked in
// under testdata/ and must keep loading forever — a failure here means a
// codec edit broke old files. Regenerate ONLY on an intentional format
// rev:
//
//	go run ./internal/storage/testdata/gen
//
// golden-v1.gob, the same document in the retired encoding/gob format,
// stays checked in as a must-fail fixture: a stream without the LTSNAP
// magic is rejected as corrupt, never handed to a reflection decoder.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/storage"
)

// goldenXML is the serialized document the golden must restore to.
const goldenXML = `<site><header/><regions><asia><item id="2"><name>chair</name></item></asia></regions><people><item id="1"><name>lamp</name></item><person>alice</person><person>bob</person></people></site>`

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("golden file missing (go run ./internal/storage/testdata/gen): %v", err)
	}
	return data
}

func TestGoldenSnapshotsLoad(t *testing.T) {
	v2 := readGolden(t, "golden-v2.ltsnap")

	// Codec level: the stream decodes, tombstones included.
	img2, err := storage.ReadSnapshot(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("v2 snapshot no longer decodes: %v", err)
	}
	if img2.Deleted == nil {
		t.Fatal("golden lost its tombstones — regenerate with an edit history")
	}

	// Document level: it restores to a working store that passes the
	// full invariant suite.
	st, err := ltree.Restore(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("v2 golden no longer restores: %v", err)
	}
	if got := st.String(); got != goldenXML {
		t.Fatalf("v2 golden restored wrong document:\n got %s\nwant %s", got, goldenXML)
	}
	if err := st.Check(); err != nil {
		t.Fatalf("v2 golden restored an inconsistent store: %v", err)
	}
	// Predicate pushdown back-compat: the golden predates per-chunk
	// attribute summaries and maxEnd fences, and the byte-stability
	// check below pins that the snapshot format still does not carry
	// them — they are rebuilt from the document on restore. Check()
	// above verifies the rebuilt fences via index.Verify; a predicate
	// query over the restored index exercises them end to end.
	for _, q := range []struct {
		expr string
		want int
	}{{"//item[@id='2']", 1}, {"//item[@id]", 2}, {"//item[@id='9']", 0}} {
		res, err := st.Query(q.expr)
		if err != nil {
			t.Fatalf("v2 golden: %s: %v", q.expr, err)
		}
		if len(res) != q.want {
			t.Fatalf("v2 golden: %s returned %d results, want %d", q.expr, len(res), q.want)
		}
	}

	// Encoder stability: re-encoding the v2 image must reproduce the v2
	// golden byte for byte (the crash tests' oracle comparisons and the
	// WAL's checkpoint identity both lean on deterministic encoding).
	var re bytes.Buffer
	if err := storage.WriteSnapshot(&re, img2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), v2) {
		t.Fatal("v2 encoder no longer byte-stable against the golden")
	}
}

// TestGoldenV1Rejected: the retired gob format must fail cleanly at both
// the codec and the store seam — ErrCorrupt at the magic sniff, no panic.
func TestGoldenV1Rejected(t *testing.T) {
	v1 := readGolden(t, "golden-v1.gob")
	if _, err := storage.ReadSnapshot(bytes.NewReader(v1)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("ReadSnapshot(v1 gob) = %v, want ErrCorrupt", err)
	}
	if _, err := ltree.Restore(bytes.NewReader(v1)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Restore(v1 gob) = %v, want ErrCorrupt", err)
	}
}

// TestGoldenLabelsStable pins the exact label values of the golden
// document: a decoder change that shifted labels (off-by-one in delta
// decoding, say) would pass structural checks but corrupt every
// ancestor/descendant relationship derived from them.
func TestGoldenLabelsStable(t *testing.T) {
	v2 := readGolden(t, "golden-v2.ltsnap")
	img, err := storage.ReadSnapshot(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Labels) == 0 {
		t.Fatal("golden has no labels")
	}
	// Strictly increasing, and stable endpoints (the full sequence is
	// covered by the byte-stability check in TestGoldenSnapshotsLoad).
	prev := img.Labels[0]
	for i, lab := range img.Labels[1:] {
		if lab <= prev {
			t.Fatalf("labels not strictly increasing at %d: %d after %d", i+1, lab, prev)
		}
		prev = lab
	}
	live := 0
	for i := range img.Labels {
		if img.Deleted == nil || !img.Deleted[i] {
			live++
		}
	}
	if live != 26 { // 11 elements ×2 + 4 text sections of goldenXML
		t.Fatalf("golden has %d live labels, want 26", live)
	}
}
