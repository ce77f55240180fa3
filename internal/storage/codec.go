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
// map, and a pre-order DOM walk with length-prefixed strings. A stream
// without the magic is rejected as ErrCorrupt.
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

	// maxStr bounds any single length prefix so a corrupt stream cannot
	// force a huge allocation before the read fails.
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

// ReadSnapshot decodes a snapshot stream. The "LTSNAP" magic carries a
// binary format version (2 today; another one is reported as unsupported
// rather than mis-decoded); a stream without the magic — too short, or
// some other format entirely — is ErrCorrupt at the sniff.
func ReadSnapshot(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(magic))
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	if len(head) < len(magic) || !bytes.Equal(head[:6], magic[:6]) {
		return nil, fmt.Errorf("%w: no LTSNAP magic", ErrCorrupt)
	}
	if version := uint16(head[6])<<8 | uint16(head[7]); version != 2 {
		return nil, fmt.Errorf("storage: restore: unsupported snapshot format %d", version)
	}
	return readV2(br)
}

// readV2 decodes the current binary format (the magic is still unread).
func readV2(br *bufio.Reader) (*Image, error) {
	if _, err := io.ReadFull(br, make([]byte, len(magic))); err != nil {
		return nil, err
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	img := &Image{Wide: flags&flagWide != 0}
	if flags&flagIndexRoot != 0 {
		if _, err := io.ReadFull(br, img.IndexRoot[:]); err != nil {
			return nil, err
		}
		img.HasIndexRoot = true
	}
	if img.F, err = getInt(br); err != nil {
		return nil, err
	}
	if img.S, err = getInt(br); err != nil {
		return nil, err
	}
	if img.Height, err = getInt(br); err != nil {
		return nil, err
	}
	n, err := getInt(br)
	if err != nil {
		return nil, err
	}
	if n > maxStr {
		return nil, ErrCorrupt
	}
	// Grow the slice as data actually arrives: a corrupt count must not
	// pre-allocate gigabytes before the first read fails (every label
	// costs at least one stream byte, so memory tracks stream length).
	img.Labels = make([]uint64, 0, min(n, 1<<16))
	prev := uint64(0)
	for i := 0; i < n; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			prev = v
		} else {
			next := prev + v
			if next < prev || v == 0 {
				return nil, ErrCorrupt
			}
			prev = next
		}
		img.Labels = append(img.Labels, prev)
	}
	if flags&flagTombstones != 0 {
		bits := make([]byte, (n+7)/8)
		if _, err := io.ReadFull(br, bits); err != nil {
			return nil, err
		}
		img.Deleted = make([]bool, n)
		for i := range img.Deleted {
			img.Deleted[i] = bits[i/8]&(1<<(i%8)) != 0
		}
	}
	root, err := readNode(br, 0)
	if err != nil {
		return nil, err
	}
	img.Root = *root
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

// maxDepth caps DOM recursion so a corrupt stream cannot blow the stack.
const maxDepth = 1 << 16

func readNode(br *bufio.Reader, depth int) (*NodeRec, error) {
	if depth > maxDepth {
		return nil, ErrCorrupt
	}
	kind, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindElement:
		n := &NodeRec{Kind: kindElement}
		if n.Tag, err = getString(br); err != nil {
			return nil, err
		}
		na, err := getInt(br)
		if err != nil || na > maxStr {
			return nil, firstErr(err)
		}
		for i := 0; i < na; i++ {
			var a AttrRec
			if a.Name, err = getString(br); err != nil {
				return nil, err
			}
			if a.Value, err = getString(br); err != nil {
				return nil, err
			}
			n.Attrs = append(n.Attrs, a)
		}
		nc, err := getInt(br)
		if err != nil || nc > maxStr {
			return nil, firstErr(err)
		}
		for i := 0; i < nc; i++ {
			c, err := readNode(br, depth+1)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, *c)
		}
		return n, nil
	case kindText:
		n := &NodeRec{Kind: kindText}
		if n.Data, err = getString(br); err != nil {
			return nil, err
		}
		return n, nil
	default:
		return nil, fmt.Errorf("%w: node kind %d", ErrCorrupt, kind)
	}
}

func firstErr(err error) error {
	if err != nil {
		return err
	}
	return ErrCorrupt
}

func putUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	bw.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func putString(bw *bufio.Writer, s string) {
	putUvarint(bw, uint64(len(s)))
	bw.WriteString(s)
}

func getInt(br *bufio.Reader) (int, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if v > maxStr {
		return 0, ErrCorrupt
	}
	return int(v), nil
}

func getString(br *bufio.Reader) (string, error) {
	n, err := getInt(br)
	if err != nil {
		return "", err
	}
	// Chunked reads for the same reason as the label loop: a corrupt
	// length must fail after one chunk, not allocate it all up front.
	buf := make([]byte, 0, min(n, 1<<13))
	var chunk [1 << 13]byte
	for len(buf) < n {
		want := min(n-len(buf), len(chunk))
		if _, err := io.ReadFull(br, chunk[:want]); err != nil {
			return "", err
		}
		buf = append(buf, chunk[:want]...)
	}
	return string(buf), nil
}
