package storage

// Native fuzz targets over the decode surfaces a crashed or hostile disk
// or peer can reach: the snapshot codec (FuzzSnapshotDecode), the WAL
// record framing + op payload codec (FuzzWALReplay), the blob-tier
// manifest (FuzzBlobManifest) and the ship-frame protocol
// (FuzzShipFrame). The contract under fuzz: decoders never panic, never
// allocate unboundedly (every count and length is checked against the
// bytes that remain before anything is allocated at its size), and
// anything they accept re-encodes and re-decodes to the same value.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/ (the native corpus
// location); TestWriteFuzzSeeds -update regenerates them.

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzInputCap bounds fuzz inputs: the decoders' allocation discipline is
// "memory tracks stream length", so a bounded input bounds memory too.
const fuzzInputCap = 1 << 20

// seedImage builds a small, fully-featured image (attrs, text, tombstones).
func seedImage() *Image {
	return &Image{
		F: 8, S: 2, Height: 2,
		Labels:  []uint64{2, 5, 7, 11, 13, 17},
		Deleted: []bool{false, false, true, true, false, false},
		Root: NodeRec{Kind: kindElement, Tag: "site", Attrs: []AttrRec{{Name: "v", Value: "1"}},
			Children: []NodeRec{
				{Kind: kindElement, Tag: "item", Children: []NodeRec{{Kind: kindText, Data: "lamp"}}},
			}},
	}
}

// seedOps builds one of every op kind.
func seedOps() []Op {
	sub := NodeRec{Kind: kindElement, Tag: "item",
		Children: []NodeRec{{Kind: kindText, Data: "x"}}}
	return []Op{
		{Kind: OpInsert, Path: []uint32{0, 1}, Idx: 2, Labels: []uint64{30, 31, 34}, Sub: &sub},
		{Kind: OpDelete, Path: []uint32{1}, Labels: []uint64{9}},
		{Kind: OpMove, Path: []uint32{0}, Dst: []uint32{2, 0}, Idx: 0, Labels: []uint64{40, 41}},
		{Kind: OpCompact},
	}
}

func snapshotSeeds(tb testing.TB) [][]byte {
	var v2 bytes.Buffer
	if err := WriteSnapshot(&v2, seedImage()); err != nil {
		tb.Fatal(err)
	}
	// The retired v1 gob format stays in the corpus as a must-reject input.
	v1, err := os.ReadFile(filepath.Join("testdata", "golden-v1.gob"))
	if err != nil {
		tb.Fatal(err)
	}
	truncated := v2.Bytes()[:v2.Len()/2]
	return [][]byte{v2.Bytes(), v1, truncated, []byte("LTSNAP\x00\x02garbage"), {}}
}

func walSeeds(tb testing.TB) [][]byte {
	payload, err := EncodeOps(seedOps())
	if err != nil {
		tb.Fatal(err)
	}
	var stream bytes.Buffer
	stream.Write(frameRecord(1, payload))
	stream.Write(frameRecord(2, payload))
	torn := stream.Bytes()[:stream.Len()-5]
	flipped := append([]byte(nil), stream.Bytes()...)
	flipped[len(flipped)/2] ^= 0x40
	return [][]byte{payload, stream.Bytes(), torn, flipped, {0x01, 0x01}, {}}
}

func FuzzSnapshotDecode(f *testing.F) {
	for _, seed := range snapshotSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			t.Skip()
		}
		img, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Accepted input: the image must re-encode and decode back to the
		// same value.
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, img); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		again, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if !reflect.DeepEqual(img, again) {
			t.Fatal("snapshot roundtrip not stable")
		}
	})
}

func FuzzWALReplay(f *testing.F) {
	for _, seed := range walSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			t.Skip()
		}
		// Surface 1: the record scanner over an arbitrary segment body.
		// It must terminate, never panic, and deliver only CRC-clean
		// records whose payloads are then held to the op codec contract.
		good, err := scanRecords(bytes.NewReader(data), 0, func(seq uint64, payload []byte) error {
			if ops, err := DecodeOps(payload); err == nil {
				reencodeOps(t, ops)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scanRecords errored on hostile input: %v", err)
		}
		if good > int64(len(data)) {
			t.Fatalf("durable prefix %d exceeds input length %d", good, len(data))
		}
		// Surface 2: the op payload codec on the raw input (the scanner's
		// CRC gate would otherwise keep fuzzing away from it).
		if ops, err := DecodeOps(data); err == nil {
			reencodeOps(t, ops)
		}
	})
}

// manifestSeeds builds blob-manifest corpus inputs: a populated manifest,
// an empty one, a truncation, a CRC-breaking flip, and raw junk.
func manifestSeeds(tb testing.TB) [][]byte {
	full, err := EncodeBlobManifest(BlobManifest{
		Ckpts: []BlobObject{{Seq: 5, Size: 100, CRC: 0xdead}, {Seq: 12, Size: 2048, CRC: 0xbeef}},
		Segs: []BlobSegment{
			{Base: 0, End: 5, Size: 400, CRC: 1},
			{Base: 5, End: 12, Size: 512, CRC: 2},
			{Base: 12, End: 19, Size: 64, CRC: 3},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	empty, err := EncodeBlobManifest(BlobManifest{})
	if err != nil {
		tb.Fatal(err)
	}
	torn := full[:len(full)/2]
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	return [][]byte{full, empty, torn, flipped, []byte("LTBLOB\x00\x01junk"), {}}
}

func FuzzBlobManifest(f *testing.F) {
	for _, seed := range manifestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			t.Skip()
		}
		// The decoder must terminate without panicking and keep allocations
		// bounded by the input (the per-entry size floors cap the counts).
		m, err := DecodeBlobManifest(data)
		if err != nil {
			return
		}
		// Accepted input: ordering invariants actually hold and the value
		// survives an encode/decode roundtrip — the uploader rewrites the
		// manifest on every flush, so a decode that "repairs" input
		// silently would corrupt the tier over time. (Byte identity is NOT
		// required: varint encodings need not be canonical.)
		for i := 1; i < len(m.Ckpts); i++ {
			if m.Ckpts[i].Seq <= m.Ckpts[i-1].Seq {
				t.Fatalf("decoder accepted unordered checkpoints: %+v", m.Ckpts)
			}
		}
		for i, s := range m.Segs {
			if s.End <= s.Base {
				t.Fatalf("decoder accepted empty segment: %+v", s)
			}
			if i > 0 && s.Base <= m.Segs[i-1].Base {
				t.Fatalf("decoder accepted unordered segments: %+v", m.Segs)
			}
		}
		out, err := EncodeBlobManifest(m)
		if err != nil {
			t.Fatalf("re-encode of decoded manifest failed: %v", err)
		}
		again, err := DecodeBlobManifest(out)
		if err != nil {
			t.Fatalf("re-decode of re-encoded manifest failed: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatal("manifest roundtrip not stable")
		}
	})
}

// shipSeeds builds ship-frame corpus inputs: one stream holding a valid
// frame of every shape the client and server exchange, that stream torn
// and bit-flipped, and every row of the malformed-frame table.
func shipSeeds(tb testing.TB) [][]byte {
	ops, err := EncodeOps(seedOps())
	if err != nil {
		tb.Fatal(err)
	}
	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, seedImage()); err != nil {
		tb.Fatal(err)
	}
	uv := func(vs ...uint64) []byte {
		var p []byte
		for _, v := range vs {
			p = binary.AppendUvarint(p, v)
		}
		return p
	}
	var stream bytes.Buffer
	for _, fr := range []struct {
		kind    uint64
		payload []byte
	}{
		{frameHello, uv(wireProto)},
		{frameHelloOK, uv(wireProto, 5)},
		{frameReplay, uv(0, wirePage)},
		{frameRec, append(uv(3), ops...)},
		{frameReplayEnd, uv(5)},
		{frameLatest, nil},
		{frameLatestOK, append(uv(5), snap.Bytes()...)},
		{frameRetain, uv(1, 3)},
		{frameErr, append(uv(ecCorrupt), "gap"...)},
		{frameNotify, uv(9)},
		{frameClosed, nil},
	} {
		stream.Write(frameRecord(fr.kind, fr.payload))
	}
	torn := stream.Bytes()[:stream.Len()-5]
	flipped := append([]byte(nil), stream.Bytes()...)
	flipped[len(flipped)/2] ^= 0x40
	seeds := [][]byte{stream.Bytes(), torn, flipped, {}}
	for _, row := range malformedFrames() {
		seeds = append(seeds, row.data)
	}
	return seeds
}

// FuzzShipFrame reads a frame stream the way both ends of a ship
// connection do, and hands each accepted frame's rest to the decoder
// its receiver would: error frames to decodeErrFrame, records to
// DecodeOps, bootstrap replies to DecodeSnapshot.
func FuzzShipFrame(f *testing.F) {
	for _, seed := range shipSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			t.Skip()
		}
		readShipFrames(t, data)
		// The input as the payload of a CRC-clean frame of every kind:
		// the CRC would otherwise keep fuzzing away from the payload
		// decoders.
		for kind := range uint64(len(wireFields)) {
			readShipFrames(t, frameRecord(kind, data))
		}
	})
}

func readShipFrames(t *testing.T, stream []byte) {
	r := bytes.NewReader(stream)
	for {
		fr, err := readWireFrame(r)
		if err != nil {
			return
		}
		switch fr.kind {
		case frameErr:
			if decodeErrFrame(fr) == nil {
				t.Fatal("error frame decoded to a nil error")
			}
		case frameRec:
			if ops, err := DecodeOps(fr.rest); err == nil {
				reencodeOps(t, ops)
			}
		case frameLatestOK:
			_, _ = DecodeSnapshot(fr.rest)
		}
		// Accepted frame: its fields and rest re-frame to a frame that
		// decodes the same.
		var p []byte
		for i := range wireFields[fr.kind] {
			p = binary.AppendUvarint(p, fr.f[i])
		}
		again, err := readWireFrame(bytes.NewReader(frameRecord(fr.kind, append(p, fr.rest...))))
		if err != nil {
			t.Fatalf("re-framed frame %d does not decode: %v", fr.kind, err)
		}
		if again.kind != fr.kind || again.f != fr.f || !bytes.Equal(again.rest, fr.rest) {
			t.Fatalf("frame roundtrip not stable: %+v then %+v", fr, again)
		}
	}
}

// reencodeOps checks the accepted-input roundtrip: ops that decoded must
// encode cleanly and decode back to the same value.
func reencodeOps(t *testing.T, ops []Op) {
	t.Helper()
	payload, err := EncodeOps(ops)
	if err != nil {
		t.Fatalf("re-encode of decoded ops failed: %v", err)
	}
	again, err := DecodeOps(payload)
	if err != nil {
		t.Fatalf("re-decode of re-encoded ops failed: %v", err)
	}
	if !reflect.DeepEqual(ops, again) {
		t.Fatal("ops roundtrip not stable")
	}
}

// update regenerates the checked-in seed corpora under testdata/fuzz/.
var update = flag.Bool("update", false, "rewrite golden files and fuzz seed corpora")

// TestWriteFuzzSeeds materializes the in-code seeds as native corpus
// files so `go test -fuzz` starts from meaningful inputs even before any
// cached corpus exists, and so the corpus is versioned with the format.
func TestWriteFuzzSeeds(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the seed corpora")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzSnapshotDecode", snapshotSeeds(t))
	write("FuzzWALReplay", walSeeds(t))
	write("FuzzBlobManifest", manifestSeeds(t))
	write("FuzzShipFrame", shipSeeds(t))
}

// TestFuzzSeedCorpusLoads asserts the checked-in corpus files decode with
// the current framing — a failing record here means the wire format
// changed without regenerating testdata/fuzz (old files must keep
// loading; see the golden back-compat test for the snapshot side).
func TestFuzzSeedCorpusLoads(t *testing.T) {
	for _, target := range []string{"FuzzSnapshotDecode", "FuzzWALReplay", "FuzzBlobManifest", "FuzzShipFrame"} {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("seed corpus missing (run TestWriteFuzzSeeds -update): %v", err)
		}
		if len(entries) == 0 {
			t.Fatalf("empty seed corpus for %s", target)
		}
	}
	// The first WAL seed is a live ops payload: it must still decode.
	payload, err := EncodeOps(seedOps())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeOps(payload); err != nil {
		t.Fatal(err)
	}
}
