package storage_test

// Gates on the byte-slice decoder (dec.go) that every restore and
// catch-up path runs through: what decoding a real snapshot and a real
// op record allocates, and that no proper prefix of a valid snapshot,
// op payload or blob manifest is accepted.

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/workload"
	"github.com/ltree-db/ltree/internal/xmldom"
)

var p82 = core.Params{F: 8, S: 2}

// xmarkDoc loads the XMarkLite document the bench serves, at scale.
func xmarkDoc(t *testing.T, scale int) *document.Doc {
	t.Helper()
	d, err := document.Load(workload.XMarkLite(scale, 1), p82)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func snapshotBytes(t *testing.T, d *document.Doc) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bidderRecord is the record a bench insert commits: the <bidder>
// fragment spliced into an open auction, then the OpStamp every store
// commit appends.
func bidderRecord(t *testing.T) []byte {
	t.Helper()
	d := xmarkDoc(t, 100)
	d.TrackOps()
	var auction *xmldom.Node
	for _, c := range d.X.Root.Children() {
		if c.Tag() == "open_auctions" {
			auction = c.Children()[7]
		}
	}
	frag, err := xmldom.ParseString(`<bidder bench="1"><date>2004-03-14</date><personref person="person7"/><increase>4.50</increase></bidder>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InsertSubtree(auction, 1, frag.Root); err != nil {
		t.Fatal(err)
	}
	ops := append(d.TakeOps(), storage.Op{Kind: storage.OpStamp, Root: [32]byte{1, 2, 3}})
	payload, err := storage.EncodeOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// allocated returns the fewest heap bytes one call of fn allocated over
// three calls; the minimum discards allocations another goroutine
// happened to make inside the window.
func allocated(fn func()) uint64 {
	best := uint64(1 << 62)
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestDecodeSnapshotAllocGate: decoding a snapshot allocates a small,
// size-independent multiple of its length — the labels, strings and DOM
// records it returns. Reading each string through a scratch buffer that
// escapes to the heap costs ~780x instead.
func TestDecodeSnapshotAllocGate(t *testing.T) {
	const maxRatio = 12
	var ratios []float64
	for _, scale := range []int{100, 400} {
		data := snapshotBytes(t, xmarkDoc(t, scale))
		n := allocated(func() {
			if _, err := storage.DecodeSnapshot(data); err != nil {
				t.Fatal(err)
			}
		})
		ratio := float64(n) / float64(len(data))
		t.Logf("scale %d: %d-byte snapshot, decode allocated %d bytes (%.1fx)", scale, len(data), n, ratio)
		if ratio > maxRatio {
			t.Errorf("scale %d: decode allocated %.1fx the snapshot length, budget %dx", scale, ratio, maxRatio)
		}
		ratios = append(ratios, ratio)
	}
	if ratios[1] > 1.25*ratios[0] {
		t.Errorf("allocation ratio grows with size: %.1fx at scale 100, %.1fx at scale 400", ratios[0], ratios[1])
	}
}

// TestDecodeOpsAllocGate: decoding one shipped or replayed record costs
// about what it returns, not a reader and a scratch buffer per string.
func TestDecodeOpsAllocGate(t *testing.T) {
	const budget = 2 << 10
	payload := bidderRecord(t)
	n := allocated(func() {
		if _, err := storage.DecodeOps(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte record: decode allocated %d bytes", len(payload), n)
	if n > budget {
		t.Fatalf("decoding a %d-byte record allocated %d bytes, budget %d", len(payload), n, budget)
	}
}

// TestDecodeRejectsEveryPrefix: every format is self-delimiting (or, for
// the manifest, checksummed), so every proper prefix of a valid input
// must fail to decode — never succeed, never panic.
func TestDecodeRejectsEveryPrefix(t *testing.T) {
	var small bytes.Buffer
	if err := storage.WriteSnapshot(&small, storage.CodecTestImage()); err != nil {
		t.Fatal(err)
	}
	seedOps, err := storage.EncodeOps(storage.FuzzSeedOps())
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := storage.EncodeBlobManifest(storage.BlobManifest{
		Ckpts: []storage.BlobObject{{Seq: 5, Size: 100, CRC: 7}, {Seq: 12, Size: 2048, CRC: 9, Root: [32]byte{4}, HasRoot: true}},
		Segs:  []storage.BlobSegment{{Base: 0, End: 5, Size: 400, CRC: 1}, {Base: 5, End: 12, Size: 512, CRC: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	decodeSnapshot := func(b []byte) error { _, err := storage.DecodeSnapshot(b); return err }
	decodeOps := func(b []byte) error { _, err := storage.DecodeOps(b); return err }
	decodeManifest := func(b []byte) error { _, err := storage.DecodeBlobManifest(b); return err }
	for _, c := range []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"snapshot", small.Bytes(), decodeSnapshot},
		{"xmark snapshot", snapshotBytes(t, xmarkDoc(t, 1)), decodeSnapshot},
		{"seed ops", seedOps, decodeOps},
		{"bidder record", bidderRecord(t), decodeOps},
		{"manifest", manifest, decodeManifest},
	} {
		if err := c.decode(c.data); err != nil {
			t.Fatalf("%s: the full input does not decode: %v", c.name, err)
		}
		for i := range c.data {
			if c.decode(c.data[:i]) == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded", c.name, i, len(c.data))
			}
		}
	}
}
