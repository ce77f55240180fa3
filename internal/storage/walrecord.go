package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// This file defines the WAL wire format: the logical operations a write
// batch performs on a labeled document, their batch payload encoding, and
// the crash-tolerant record framing that wal.go appends to segment files.
//
// Op payload encoding (one batch = one record payload):
//
//	nops                uvarint
//	per op: kind        1 byte
//	  OpInsert:  path, idx uvarint, labels, subtree (v2 DOM node encoding)
//	  OpDelete:  path, labels (1 entry: begin label of the deleted root)
//	  OpMove:    path (source), path (destination parent), idx uvarint, labels
//	  OpCompact: nothing
//	  OpStamp:   32 raw bytes — the writer's post-batch index root hash
//	             (an integrity annotation; replay skips it, followers
//	             compare it against their own recomputed root)
//	path   = uvarint count + one uvarint child index per step from the root
//	labels = uvarint count + first label absolute, then strictly positive
//	         deltas — the same delta coding the v2 snapshot codec uses
//	         (run labels are strictly increasing, so gaps are ~1 byte each)
//
// Record framing inside a segment (after the 16-byte segment header,
// see wal.go):
//
//	length  uint32 LE   payload bytes
//	crc     uint32 LE   CRC-32C (Castagnoli) over seq bytes + payload
//	seq     uint64 LE   batch sequence number
//	payload length bytes
//
// A record is durable iff it is complete and its CRC matches; scanning
// stops at the first torn or corrupt record, which makes "the longest
// durable prefix" the recovery semantics.

// OpKind discriminates WAL operations.
type OpKind byte

// WAL operation kinds.
const (
	OpInsert  OpKind = 1 // splice Subtree as the Path node's Idx-th child
	OpDelete  OpKind = 2 // delete the subtree rooted at Path
	OpMove    OpKind = 3 // move subtree at Path to Dst's Idx-th child
	OpCompact OpKind = 4 // rebuild labels without tombstones
	OpStamp   OpKind = 5 // post-batch index root hash (no document effect)
)

// Op is one logical document mutation, serializable and replayable. Nodes
// are referenced by their child-index path from the root at the moment the
// op ran; Labels records the labels the op produced (for OpInsert/OpMove
// the spliced subtree's full token run, for OpDelete the deleted root's
// begin label), which replay verifies to detect divergence.
type Op struct {
	Kind   OpKind
	Path   []uint32 // target node (OpDelete/OpMove) or parent (OpInsert)
	Idx    uint32   // insertion position (OpInsert/OpMove)
	Dst    []uint32 // destination parent path (OpMove)
	Labels []uint64 // post-op token labels, strictly increasing
	Sub    *NodeRec // inserted subtree (OpInsert)
	Root   [32]byte // post-batch index root hash (OpStamp)
}

// crcTable is the Castagnoli polynomial table shared by framing and scan.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecord bounds one framed record's payload so a corrupt length prefix
// cannot force a huge allocation before the CRC check fails.
const maxRecord = 1 << 30

// recordHeaderLen is the fixed framing prefix: length + crc + seq.
const recordHeaderLen = 4 + 4 + 8

// ErrCorruptWAL reports a malformed WAL payload or segment.
var ErrCorruptWAL = errors.New("storage: corrupt WAL")

// EncodeOps serializes a batch of ops into a record payload.
func EncodeOps(ops []Op) ([]byte, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	putUvarint(bw, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		if err := bw.WriteByte(byte(op.Kind)); err != nil {
			return nil, err
		}
		switch op.Kind {
		case OpInsert:
			putPath(bw, op.Path)
			putUvarint(bw, uint64(op.Idx))
			if err := putLabels(bw, op.Labels); err != nil {
				return nil, err
			}
			if op.Sub == nil {
				return nil, fmt.Errorf("storage: encode op %d: insert without subtree", i)
			}
			if err := writeNode(bw, op.Sub); err != nil {
				return nil, err
			}
		case OpDelete:
			putPath(bw, op.Path)
			if err := putLabels(bw, op.Labels); err != nil {
				return nil, err
			}
		case OpMove:
			putPath(bw, op.Path)
			putPath(bw, op.Dst)
			putUvarint(bw, uint64(op.Idx))
			if err := putLabels(bw, op.Labels); err != nil {
				return nil, err
			}
		case OpCompact:
			// no body
		case OpStamp:
			if _, err := bw.Write(op.Root[:]); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("storage: encode op %d: unknown kind %d", i, op.Kind)
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeOps parses a record payload back into its op batch. Every count is
// bounded and trailing garbage is rejected, so a payload that passed the
// CRC but was encoded by a buggy writer still fails loudly instead of
// replaying nonsense.
func DecodeOps(payload []byte) ([]Op, error) {
	d := dec{b: payload}
	nops := d.count() // every op costs at least one payload byte
	if d.err != nil {
		return nil, fmt.Errorf("%w: op count: %v", ErrCorruptWAL, d.err)
	}
	ops := make([]Op, nops)
	for i := range ops {
		op := &ops[i]
		op.Kind = OpKind(d.u8())
		switch op.Kind {
		case OpInsert:
			op.Path, op.Idx, op.Labels = d.path(), uint32(d.int()), d.labels()
			op.Sub = new(NodeRec)
			d.tree(op.Sub)
		case OpDelete:
			op.Path, op.Labels = d.path(), d.labels()
			if d.err == nil && len(op.Labels) != 1 {
				return nil, fmt.Errorf("%w: op %d: delete carries %d labels", ErrCorruptWAL, i, len(op.Labels))
			}
		case OpMove:
			op.Path, op.Dst, op.Idx, op.Labels = d.path(), d.path(), uint32(d.int()), d.labels()
		case OpCompact:
			// no body
		case OpStamp:
			copy(op.Root[:], d.bytes(len(op.Root)))
		default:
			d.fail(fmt.Errorf("unknown kind %d", op.Kind))
		}
		if d.err != nil {
			return nil, fmt.Errorf("%w: op %d: %v", ErrCorruptWAL, i, d.err)
		}
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after %d ops", ErrCorruptWAL, nops)
	}
	return ops, nil
}

// putPath emits a node path (count + child indices).
func putPath(bw *bufio.Writer, path []uint32) {
	putUvarint(bw, uint64(len(path)))
	for _, step := range path {
		putUvarint(bw, uint64(step))
	}
}

// putLabels emits a strictly increasing label run with the v2 snapshot
// delta coding: first label absolute, then positive gaps.
func putLabels(bw *bufio.Writer, labels []uint64) error {
	putUvarint(bw, uint64(len(labels)))
	prev := uint64(0)
	for i, lab := range labels {
		if i == 0 {
			putUvarint(bw, lab)
		} else {
			if lab <= prev {
				return fmt.Errorf("storage: op labels not strictly increasing at %d", i)
			}
			putUvarint(bw, lab-prev)
		}
		prev = lab
	}
	return nil
}

// frameRecord builds one framed record ready to append to a segment.
func frameRecord(seq uint64, payload []byte) []byte {
	frame := make([]byte, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[8:16], seq)
	copy(frame[recordHeaderLen:], payload)
	crc := crc32.Checksum(frame[8:], crcTable) // seq bytes + payload
	binary.LittleEndian.PutUint32(frame[4:8], crc)
	return frame
}

// scanRecords iterates the framed records of a segment stream whose
// header has already been consumed, calling fn for each intact record in
// order. base is the sequence number the segment starts after; records
// must be numbered base+1, base+2, … — a gap means the file was tampered
// with and ends the scan like corruption does.
//
// The returned offset is the length of the durable prefix relative to the
// stream start (i.e. just past the last intact record). A torn or
// corrupt tail is not an error — it ends the scan; only fn's errors and
// real I/O failures are returned.
func scanRecords(r io.Reader, base uint64, fn func(seq uint64, payload []byte) error) (int64, error) {
	br := bufio.NewReader(r)
	var good int64
	expect := base + 1
	var head [recordHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			if isStreamEnd(err) {
				return good, nil // clean end or torn header: durable prefix ends here
			}
			return good, err // real I/O failure: not evidence of a torn tail
		}
		length := binary.LittleEndian.Uint32(head[0:4])
		crc := binary.LittleEndian.Uint32(head[4:8])
		seq := binary.LittleEndian.Uint64(head[8:16])
		if length > maxRecord || seq != expect {
			return good, nil
		}
		payload, err := readPayload(br, int(length))
		if err != nil {
			if !isStreamEnd(err) {
				return good, err
			}
			return good, nil // torn payload
		}
		sum := crc32.Checksum(head[8:16], crcTable)
		sum = crc32.Update(sum, crcTable, payload)
		if sum != crc {
			return good, nil
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				return good, err
			}
		}
		good += recordHeaderLen + int64(length)
		expect++
	}
}

// readPayload reads exactly n bytes of a record or frame payload off a
// stream, into a buffer that starts at min(n, 8 KiB) and doubles as bytes
// arrive: a corrupt length prefix fails after memory proportional to
// the bytes actually received, never the size it claims.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, 1<<13))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
		if off = len(buf); off == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-off, off))...)
	}
}

// isStreamEnd reports whether err is evidence the stream simply ended
// (cleanly or torn mid-structure) rather than a real I/O failure. Only
// these justify longest-durable-prefix handling — truncating a segment
// because a disk returned EIO would destroy durable records.
func isStreamEnd(err error) bool {
	return err == io.EOF || err == io.ErrUnexpectedEOF
}
