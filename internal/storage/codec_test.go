package storage

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// img returns a representative snapshot image: tombstones, attributes,
// adjacent text children, a label starting at 0.
func img() *Image {
	return &Image{
		F: 8, S: 2, Height: 3,
		Labels:  []uint64{0, 7, 13, 14, 21, 49, 56},
		Deleted: []bool{false, true, false, false, true, false, false},
		Root: NodeRec{
			Kind: kindElement,
			Tag:  "r",
			Attrs: []AttrRec{
				{Name: "id", Value: "1"},
				{Name: "lang", Value: "xq"},
			},
			Children: []NodeRec{
				{Kind: kindText, Data: "hello <world> & co"},
				{Kind: kindText, Data: "adjacent"},
				{Kind: kindElement, Tag: "c", Children: []NodeRec{
					{Kind: kindText, Data: ""},
				}},
			},
		},
	}
}

func TestV2RoundTrip(t *testing.T) {
	want := img()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestV2NoTombstones(t *testing.T) {
	want := img()
	want.Deleted = nil
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Deleted != nil {
		t.Fatal("tombstone map materialized out of nothing")
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatal("labels mangled")
	}
}

// TestReadRejectsFutureVersion: an LTSNAP stream with a higher format
// version must name the version, not be mis-decoded as v2.
func TestReadRejectsFutureVersion(t *testing.T) {
	future := append([]byte{}, magic[:6]...)
	future = append(future, 0, 3) // version 3
	_, err := DecodeSnapshot(future)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("unsupported snapshot format 3")) {
		t.Fatalf("future version error = %v", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		[]byte("LTSN"), // shorter than the magic
		[]byte("not a snapshot"),
	} {
		// No LTSNAP magic: rejected at the sniff, never handed to a decoder.
		if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("garbage %q: err = %v, want ErrCorrupt", bad, err)
		}
	}
	// Magic then truncation.
	if _, err := DecodeSnapshot(append(append([]byte{}, magic[:]...), 0xff)); err == nil {
		t.Fatal("truncated v2 stream decoded")
	}
}

// TestReadBoundedAllocation: a tiny stream claiming 2^29 labels must
// fail on truncation with memory proportional to the stream, not the
// claimed count.
func TestReadBoundedAllocation(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(0)            // flags
	putUvarintTest(&buf, 8)     // F
	putUvarintTest(&buf, 2)     // S
	putUvarintTest(&buf, 3)     // Height
	putUvarintTest(&buf, 1<<29) // label count, then nothing
	if _, err := DecodeSnapshot(buf.Bytes()); err == nil {
		t.Fatal("truncated label stream decoded")
	}
}

func putUvarintTest(buf *bytes.Buffer, v uint64) {
	var tmp [10]byte
	n := 0
	for v >= 0x80 {
		tmp[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	tmp[n] = byte(v)
	buf.Write(tmp[:n+1])
}

func TestWriteRejectsBadLabels(t *testing.T) {
	bad := img()
	bad.Labels = []uint64{3, 3}
	bad.Deleted = nil
	if err := WriteSnapshot(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("non-increasing labels encoded")
	}
}
