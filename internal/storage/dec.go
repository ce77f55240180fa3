package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// dec is the one decoder under every payload this package parses from
// memory — snapshots, op batches, blob manifests and ship frame payloads:
// a cursor over a byte slice with a sticky error. The first failure
// empties the cursor, so every later read is a no-op that fails and a
// caller checks err once per unit it reports on. Every count and length
// is checked against the bytes that remain before anything is allocated
// at its size: each label, path step, attribute, child and op costs at
// least one byte, so a corrupt count fails with memory bounded by the
// input and a valid one is allocated at its final size.
type dec struct {
	b     []byte
	err   error
	slots int // child slots the tree being decoded may still allocate
}

var errVarint = errors.New("uvarint overflows 64 bits")

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// bytes returns the next n bytes, aliasing the input; nil once the
// cursor has failed or fewer than n remain.
func (d *dec) bytes(n int) []byte {
	if n > len(d.b) {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) u8() byte {
	if p := d.bytes(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *dec) u32() uint32 {
	if p := d.bytes(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail(io.ErrUnexpectedEOF)
	case n < 0:
		d.fail(errVarint)
	default:
		d.b = d.b[n:]
	}
	return v
}

// int reads a uvarint scalar, rejecting anything over maxStr.
func (d *dec) int() int {
	v := d.uvarint()
	if v > maxStr {
		d.fail(fmt.Errorf("length %d over %d", v, maxStr))
		return 0
	}
	return int(v)
}

// count reads the length of a run whose items each take at least one
// more byte, rejecting one the remaining bytes cannot hold.
func (d *dec) count() int {
	n := d.int()
	if n > len(d.b) {
		d.fail(fmt.Errorf("count %d with %d bytes left: %w", n, len(d.b), io.ErrUnexpectedEOF))
		return 0
	}
	return n
}

// str reads a length-prefixed string.
func (d *dec) str() string { return string(d.bytes(d.int())) }

// labels reads a delta-coded label run: a count, the first label
// absolute, then strictly positive gaps.
func (d *dec) labels() []uint64 {
	labels := make([]uint64, d.count())
	prev := uint64(0)
	for i := 0; i < len(labels) && d.err == nil; i++ {
		v := d.uvarint()
		if i > 0 {
			if v == 0 || prev+v < prev {
				d.fail(fmt.Errorf("label delta %d at %d", v, i))
			}
			v += prev
		}
		labels[i], prev = v, v
	}
	return labels
}

// path reads a node path, bounded by the codec's recursion limit (a path
// deeper than maxDepth cannot reference a decodable document).
func (d *dec) path() []uint32 {
	n := d.count()
	if n > maxDepth {
		d.fail(fmt.Errorf("path depth %d", n))
		return nil
	}
	path := make([]uint32, n)
	for i := range path {
		path[i] = uint32(d.int())
	}
	return path
}

// maxDepth caps DOM recursion so a corrupt input cannot blow the stack.
const maxDepth = 1 << 16

// tree decodes a DOM tree into root, allocating each child list at its
// final size and decoding the children in place. Every node costs at
// least two bytes, so one tree may allocate at most half the bytes it
// starts with in child slots — without that cap, nested levels could
// each claim, and allocate, children against the same remaining bytes.
func (d *dec) tree(root *NodeRec) {
	d.slots = len(d.b) / 2
	d.node(root, 0)
}

func (d *dec) node(n *NodeRec, depth int) {
	if depth > maxDepth {
		d.fail(errors.New("DOM nested too deep"))
		return
	}
	// A failed kind read decodes as an empty element: reads after a
	// failure are no-ops, and the first error is kept.
	switch kind := d.u8(); kind {
	case kindElement:
		n.Kind, n.Tag = kindElement, d.str()
		if na := d.count(); na > 0 {
			n.Attrs = make([]AttrRec, na)
			for i := range n.Attrs {
				n.Attrs[i].Name, n.Attrs[i].Value = d.str(), d.str()
			}
		}
		nc := d.count()
		if nc > d.slots {
			d.fail(fmt.Errorf("%d children with %d node slots left", nc, d.slots))
			return
		}
		d.slots -= nc
		if nc > 0 {
			n.Children = make([]NodeRec, nc)
			for i := 0; i < nc && d.err == nil; i++ {
				d.node(&n.Children[i], depth+1)
			}
		}
	case kindText:
		n.Kind, n.Data = kindText, d.str()
	default:
		d.fail(fmt.Errorf("node kind %d", kind))
	}
}
