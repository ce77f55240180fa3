// Package storage is the persistence layer: a binary snapshot codec and
// the write-ahead log (checkpoints + framed op batches, with log shipping
// and a blob tier on top) that is the one way state is saved and
// restored. It sits below internal/document — the codec works on a
// neutral Image so the document layer depends on storage, never the
// other way around.
//
// Snapshot wire format (v2) — length-prefixed binary: a magic header,
// uvarint scalar fields, delta-encoded labels (they are strictly
// increasing, so gaps compress to a uvarint each), a bit-packed tombstone
// map, and a pre-order DOM walk with length-prefixed strings. Bytes
// without the magic are rejected as ErrCorrupt.
//
// Decoding: every caller already holds a whole snapshot, op batch,
// manifest or ship frame in memory, so all of them decode through one
// bounds-checked cursor over the byte slice (dec, dec.go). It checks
// every count and length against the bytes that remain before it
// allocates, so a corrupt input fails with memory bounded by its own
// length. Only the two readers of a live stream — WAL segment scans and
// ship frames off a socket — read from an io.Reader, through one bounded
// readPayload.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Image is the codec-neutral picture of a labeled document: the exact
// L-Tree state (labels, tombstones, height, parameters) plus the DOM
// shape. The tree structure is implicit in the labels (paper §4.2), so
// nothing else is needed to restore with bit-identical labels.
type Image struct {
	F, S    int
	Wide    bool
	Height  int
	Labels  []uint64
	Deleted []bool // nil when no tombstones
	Root    NodeRec

	// IndexRoot, when HasIndexRoot is set, is the writer's index root
	// hash at snapshot time — an integrity annotation backup
	// verification and seeded followers compare against a recomputed
	// root. The writer emits it only when present, so images that never
	// carried one re-encode byte-identically (golden stability).
	IndexRoot    [32]byte
	HasIndexRoot bool
}

// NodeRec is the recursive DOM image. Kind mirrors xmldom.Kind (0 =
// element, 1 = text); the DOM is stored structurally so token boundaries
// survive exactly (textual XML would merge adjacent text nodes on
// reparse).
type NodeRec struct {
	Kind     int
	Tag      string
	Data     string
	Attrs    []AttrRec
	Children []NodeRec
}

// AttrRec is one element attribute.
type AttrRec struct {
	Name  string
	Value string
}

// Wire constants for format v2.
var magic = [8]byte{'L', 'T', 'S', 'N', 'A', 'P', 0, 2}

const (
	flagWide       = 1 << 0
	flagTombstones = 1 << 1
	// flagIndexRoot marks 32 raw index-root-hash bytes immediately after
	// the flags byte. Kept header-adjacent so SnapshotRootHash can peek
	// it without decoding the document; the writer emits the bit (and
	// bytes) only for images that explicitly carry a hash, keeping every
	// pre-existing byte stream and its golden fixtures unchanged.
	flagIndexRoot = 1 << 2

	kindElement = 0
	kindText    = 1

	// maxStr bounds any single length prefix or scalar field.
	maxStr = 1 << 30
)

// ErrCorrupt reports a malformed snapshot stream.
var ErrCorrupt = errors.New("storage: corrupt snapshot")

// WriteSnapshot encodes the image in format v2.
func WriteSnapshot(w io.Writer, img *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	flags := byte(0)
	if img.Wide {
		flags |= flagWide
	}
	if img.Deleted != nil {
		flags |= flagTombstones
	}
	if img.HasIndexRoot {
		flags |= flagIndexRoot
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	if img.HasIndexRoot {
		if _, err := bw.Write(img.IndexRoot[:]); err != nil {
			return err
		}
	}
	putUvarint(bw, uint64(img.F))
	putUvarint(bw, uint64(img.S))
	putUvarint(bw, uint64(img.Height))
	putUvarint(bw, uint64(len(img.Labels)))
	prev := uint64(0)
	for i, lab := range img.Labels {
		if i == 0 {
			putUvarint(bw, lab)
		} else {
			if lab <= prev {
				return fmt.Errorf("storage: labels not strictly increasing at %d", i)
			}
			putUvarint(bw, lab-prev)
		}
		prev = lab
	}
	if img.Deleted != nil {
		if len(img.Deleted) != len(img.Labels) {
			return fmt.Errorf("storage: %d tombstone flags for %d labels", len(img.Deleted), len(img.Labels))
		}
		bits := make([]byte, (len(img.Deleted)+7)/8)
		for i, dead := range img.Deleted {
			if dead {
				bits[i/8] |= 1 << (i % 8)
			}
		}
		if _, err := bw.Write(bits); err != nil {
			return err
		}
	}
	if err := writeNode(bw, &img.Root); err != nil {
		return err
	}
	return bw.Flush()
}

// SnapshotRootHash peeks the index root hash out of an encoded v2
// snapshot without decoding the document — the flags byte and hash
// bytes sit right after the magic, so backup verification and manifest
// stamping read 41 bytes, not the image. ok is false for streams without
// the magic, short streams, and streams written without a hash.
func SnapshotRootHash(data []byte) (root [32]byte, ok bool) {
	if len(data) < len(magic)+1 || !bytes.Equal(data[:len(magic)], magic[:]) {
		return root, false
	}
	flags := data[len(magic)]
	if flags&flagIndexRoot == 0 || len(data) < len(magic)+1+len(root) {
		return root, false
	}
	copy(root[:], data[len(magic)+1:])
	return root, true
}

// DecodeSnapshot decodes an encoded snapshot. The "LTSNAP" magic carries
// a binary format version (2 today; another one is reported as
// unsupported rather than mis-decoded); bytes without the magic — too
// short, or some other format entirely — are ErrCorrupt at the sniff.
func DecodeSnapshot(data []byte) (*Image, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:6], magic[:6]) {
		return nil, fmt.Errorf("%w: no LTSNAP magic", ErrCorrupt)
	}
	if version := uint16(data[6])<<8 | uint16(data[7]); version != 2 {
		return nil, fmt.Errorf("storage: restore: unsupported snapshot format %d", version)
	}
	d := dec{b: data[len(magic):]}
	flags := d.u8()
	img := &Image{Wide: flags&flagWide != 0}
	if img.HasIndexRoot = flags&flagIndexRoot != 0; img.HasIndexRoot {
		copy(img.IndexRoot[:], d.bytes(len(img.IndexRoot)))
	}
	img.F, img.S, img.Height = d.int(), d.int(), d.int()
	img.Labels = d.labels()
	if flags&flagTombstones != 0 {
		bits := d.bytes((len(img.Labels) + 7) / 8)
		if d.err == nil {
			img.Deleted = make([]bool, len(img.Labels))
			for i := range img.Deleted {
				img.Deleted[i] = bits[i/8]&(1<<(i%8)) != 0
			}
		}
	}
	d.tree(&img.Root)
	if d.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, d.err)
	}
	return img, nil
}

// writeNode emits one DOM node pre-order.
func writeNode(bw *bufio.Writer, n *NodeRec) error {
	switch n.Kind {
	case kindElement:
		if err := bw.WriteByte(kindElement); err != nil {
			return err
		}
		putString(bw, n.Tag)
		putUvarint(bw, uint64(len(n.Attrs)))
		for _, a := range n.Attrs {
			putString(bw, a.Name)
			putString(bw, a.Value)
		}
		putUvarint(bw, uint64(len(n.Children)))
		for i := range n.Children {
			if err := writeNode(bw, &n.Children[i]); err != nil {
				return err
			}
		}
		return nil
	case kindText:
		if err := bw.WriteByte(kindText); err != nil {
			return err
		}
		putString(bw, n.Data)
		return nil
	default:
		return fmt.Errorf("storage: unknown node kind %d", n.Kind)
	}
}

func putUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	bw.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func putString(bw *bufio.Writer, s string) {
	putUvarint(bw, uint64(len(s)))
	bw.WriteString(s)
}
