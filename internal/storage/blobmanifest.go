package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/ltree-db/ltree/internal/storage/blob"
)

// This file is the blob-tier manifest: the single source of truth for
// which WAL objects are durable in the object store. The uploader appends
// an entry only AFTER the object's bytes are fully stored, and every
// entry pins the object's exact size and CRC-32C — so a reader never has
// to trust the blob store's bytes (a partial upload or a torn read fails
// verification and is retried), and "is this segment blob-durable?" is a
// manifest lookup, never a blob probe.
//
// Key layout under one tier prefix:
//
//	<prefix>MANIFEST       this manifest (overwritten on every update)
//	<prefix>ckpt/%016d     checkpoint snapshot, named by covered seq
//	<prefix>seg/%016d      sealed log segment (full file bytes, including
//	                       the segment header), named by base seq
//
// Wire format (little-endian, uvarint = binary varint):
//
//	magic    [8]byte "LTBLOB\0\2"
//	nCkpt    uvarint
//	per ckpt: seq uvarint (strictly ascending), size uvarint, crc uint32,
//	          flags byte (bit 0: index root present),
//	          root [32]byte when flagged
//	nSeg     uvarint
//	per seg:  base uvarint (strictly ascending), end uvarint (> base),
//	          size uvarint, crc uint32
//	crc      uint32 over every preceding byte
//
// Version 2 added the per-checkpoint index root hash (the flags byte and
// conditional root). Version-1 manifests — everything before it — decode
// with no roots; the first flush after an upgrade rewrites the manifest
// as v2, back-filling nothing (old checkpoints keep HasRoot=false, and
// their snapshots may carry the root inline regardless).
//
// The trailing CRC makes a torn manifest read detectable on its own: a
// reader that gets garbage retries instead of concluding the blob tier
// is empty (which would silently forfeit the whole uploaded history).

// blobManifestMagic heads the manifest: "LTBLOB" + NUL + format version 2.
var blobManifestMagic = [8]byte{'L', 'T', 'B', 'L', 'O', 'B', 0, 2}

// blobManifestMagicV1 is the pre-root format, still accepted on read.
var blobManifestMagicV1 = [8]byte{'L', 'T', 'B', 'L', 'O', 'B', 0, 1}

// blobCkptHasRoot flags a v2 checkpoint entry carrying an index root.
const blobCkptHasRoot = 1 << 0

// Blob object key names under the tier prefix.
const (
	blobManifestKey = "MANIFEST"
	blobCkptPrefix  = "ckpt/"
	blobSegPrefix   = "seg/"
)

func blobCkptKey(seq uint64) string { return fmt.Sprintf("%s%016d", blobCkptPrefix, seq) }
func blobSegKey(base uint64) string { return fmt.Sprintf("%s%016d", blobSegPrefix, base) }

// ErrCorruptManifest reports a blob manifest that does not decode: torn,
// truncated, or written by something else. Never silently treated as
// empty.
var ErrCorruptManifest = errors.New("storage: corrupt blob-tier manifest")

// BlobObject is one durable checkpoint in the blob tier.
type BlobObject struct {
	Seq  uint64 // covered sequence number (the checkpoint's version)
	Size uint64 // exact object size in bytes
	CRC  uint32 // CRC-32C over the object bytes

	// Root is the index content root hash the checkpoint snapshot was
	// stamped with, when HasRoot: backup verification compares it
	// against a live store's root without downloading the object.
	// False for checkpoints uploaded before hashing existed or taken
	// from un-stamped snapshots.
	Root    [32]byte
	HasRoot bool
}

// BlobSegment is one durable sealed log segment in the blob tier.
type BlobSegment struct {
	Base uint64 // sequence number the segment starts after
	End  uint64 // sequence number of its last record (== next base)
	Size uint64 // exact object size in bytes
	CRC  uint32 // CRC-32C over the object bytes
}

// BlobManifest lists every object durable in the blob tier, both slices
// ascending by sequence number.
type BlobManifest struct {
	Ckpts []BlobObject
	Segs  []BlobSegment
}

// ckptSeq reports whether the manifest holds a checkpoint at seq.
func (m *BlobManifest) hasCkpt(seq uint64) bool {
	for _, c := range m.Ckpts {
		if c.Seq == seq {
			return true
		}
	}
	return false
}

// hasSeg reports whether the manifest holds a segment based at base.
func (m *BlobManifest) hasSeg(base uint64) bool {
	for _, s := range m.Segs {
		if s.Base == base {
			return true
		}
	}
	return false
}

// newestCkpt returns the highest checkpoint seq (ok=false when none).
func (m *BlobManifest) newestCkpt() (uint64, bool) {
	if len(m.Ckpts) == 0 {
		return 0, false
	}
	return m.Ckpts[len(m.Ckpts)-1].Seq, true
}

// durableSeq returns the highest sequence number reconstructible from the
// blob tier alone: the newest checkpoint, extended through every
// contiguous segment after it.
func (m *BlobManifest) durableSeq() uint64 {
	cur, ok := m.newestCkpt()
	if !ok {
		return 0
	}
	for _, s := range m.Segs {
		if s.Base <= cur && s.End > cur {
			cur = s.End
		}
	}
	return cur
}

// EncodeBlobManifest serializes a manifest, validating the ordering
// invariants so a buggy writer fails here instead of poisoning the tier.
func EncodeBlobManifest(m BlobManifest) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(blobManifestMagic[:])
	bw := bufio.NewWriter(&buf)
	putUvarint(bw, uint64(len(m.Ckpts)))
	var tmp [4]byte
	prev, first := uint64(0), true
	for _, c := range m.Ckpts {
		if !first && c.Seq <= prev {
			return nil, fmt.Errorf("storage: manifest checkpoints not ascending at %d", c.Seq)
		}
		prev, first = c.Seq, false
		putUvarint(bw, c.Seq)
		putUvarint(bw, c.Size)
		binary.LittleEndian.PutUint32(tmp[:], c.CRC)
		bw.Write(tmp[:])
		if c.HasRoot {
			bw.WriteByte(blobCkptHasRoot)
			bw.Write(c.Root[:])
		} else {
			bw.WriteByte(0)
		}
	}
	putUvarint(bw, uint64(len(m.Segs)))
	prev, first = 0, true
	for _, s := range m.Segs {
		if !first && s.Base <= prev {
			return nil, fmt.Errorf("storage: manifest segments not ascending at %d", s.Base)
		}
		if s.End <= s.Base {
			return nil, fmt.Errorf("storage: manifest segment %d with end %d", s.Base, s.End)
		}
		prev, first = s.Base, false
		putUvarint(bw, s.Base)
		putUvarint(bw, s.End)
		putUvarint(bw, s.Size)
		binary.LittleEndian.PutUint32(tmp[:], s.CRC)
		bw.Write(tmp[:])
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	sum := crc32.Checksum(buf.Bytes(), crcTable)
	binary.LittleEndian.PutUint32(tmp[:], sum)
	buf.Write(tmp[:])
	return buf.Bytes(), nil
}

// DecodeBlobManifest parses a manifest, rejecting torn bytes (trailing
// CRC), bad magic, unordered entries, and trailing garbage.
func DecodeBlobManifest(data []byte) (BlobManifest, error) {
	var m BlobManifest
	if len(data) < len(blobManifestMagic)+4 {
		return m, fmt.Errorf("%w: %d bytes", ErrCorruptManifest, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return m, fmt.Errorf("%w: checksum mismatch", ErrCorruptManifest)
	}
	v2 := bytes.Equal(body[:len(blobManifestMagic)], blobManifestMagic[:])
	if !v2 && !bytes.Equal(body[:len(blobManifestMagic)], blobManifestMagicV1[:]) {
		return m, fmt.Errorf("%w: bad magic", ErrCorruptManifest)
	}
	d := dec{b: body[len(blobManifestMagic):]}
	nc := d.int()
	if d.err != nil {
		return m, fmt.Errorf("%w: ckpt count: %v", ErrCorruptManifest, d.err)
	}
	// Every entry costs at least 6 bytes; bound the allocation by what the
	// payload could actually hold.
	if nc > len(body)/6 {
		return m, fmt.Errorf("%w: %d checkpoints in %d bytes", ErrCorruptManifest, nc, len(body))
	}
	for i := 0; i < nc; i++ {
		c := BlobObject{Seq: d.uvarint(), Size: d.uvarint(), CRC: d.u32()}
		if v2 {
			flags := d.u8()
			if flags&^byte(blobCkptHasRoot) != 0 {
				d.fail(fmt.Errorf("unknown flags %#x", flags))
			}
			if c.HasRoot = flags&blobCkptHasRoot != 0; c.HasRoot {
				copy(c.Root[:], d.bytes(len(c.Root)))
			}
		}
		if d.err != nil {
			return m, fmt.Errorf("%w: ckpt %d: %v", ErrCorruptManifest, i, d.err)
		}
		if i > 0 && c.Seq <= m.Ckpts[i-1].Seq {
			return m, fmt.Errorf("%w: checkpoints not ascending at %d", ErrCorruptManifest, c.Seq)
		}
		m.Ckpts = append(m.Ckpts, c)
	}
	ns := d.int()
	if d.err != nil {
		return m, fmt.Errorf("%w: segment count: %v", ErrCorruptManifest, d.err)
	}
	if ns > len(body)/7 {
		return m, fmt.Errorf("%w: %d segments in %d bytes", ErrCorruptManifest, ns, len(body))
	}
	for i := 0; i < ns; i++ {
		s := BlobSegment{Base: d.uvarint(), End: d.uvarint(), Size: d.uvarint(), CRC: d.u32()}
		if d.err != nil {
			return m, fmt.Errorf("%w: seg %d: %v", ErrCorruptManifest, i, d.err)
		}
		if i > 0 && s.Base <= m.Segs[i-1].Base {
			return m, fmt.Errorf("%w: segments not ascending at %d", ErrCorruptManifest, s.Base)
		}
		if s.End <= s.Base {
			return m, fmt.Errorf("%w: segment %d with end %d", ErrCorruptManifest, s.Base, s.End)
		}
		m.Segs = append(m.Segs, s)
	}
	if len(d.b) != 0 {
		return m, fmt.Errorf("%w: trailing bytes", ErrCorruptManifest)
	}
	return m, nil
}

// loadBlobManifest reads and decodes the manifest under prefix, retrying
// transient/torn reads. A missing manifest is a fresh tier (empty
// manifest, nil error); bytes that never decode across the retry budget
// are ErrCorruptManifest — loud, never "fresh".
func loadBlobManifest(bs blob.Store, prefix string, retry *blobRetry) (BlobManifest, error) {
	var lastErr error
	for attempt := 0; retry.attempt(attempt); attempt++ {
		data, err := bs.Get(prefix + blobManifestKey)
		if errors.Is(err, blob.ErrNotExist) {
			return BlobManifest{}, nil
		}
		if err == nil {
			m, derr := DecodeBlobManifest(data)
			if derr == nil {
				return m, nil
			}
			err = derr // torn read: retry
		}
		lastErr = err
		retry.sleep(attempt)
	}
	return BlobManifest{}, fmt.Errorf("storage: blob manifest unreadable: %w", lastErr)
}
