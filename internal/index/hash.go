package index

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"github.com/ltree-db/ltree/internal/document"
)

// Hash is the 32-byte authenticated digest of one index version's
// logical content: the full multiset of (tag, begin, end, level)
// postings. Two versions carry the same Hash exactly when they index
// the same elements under the same labels — regardless of how either
// version happens to be chunked.
type Hash [32]byte

// IsZero reports whether h is the zero hash (no hash recorded).
func (h Hash) IsZero() bool { return h == Hash{} }

// digest is the internal combinable form of a content hash: a SHA-256
// output folded into four 64-bit lanes that combine by lane-wise
// wrapping addition (an AdHash-style multiset hash). Addition is
// commutative and associative, which buys the property the whole
// scheme leans on: a tag's digest is the same no matter how its
// entries are partitioned into chunks.
//
// Partition independence is load-bearing, not a nicety. A leader that
// has been running for a while carries chunk boundaries drifted by
// incremental patching; a follower bootstrapped from the same
// checkpoint rebuilds the same content with fresh, evenly-split
// chunks. A Merkle rollup over chunk boundaries would brand that pair
// divergent; the multiset digest sees identical content. The cost is
// that the digest is an equality check, not a membership proof — which
// is all diff, change feeds, and replica integrity need.
//
// Collision resistance rests on the per-entry SHA-256 preimages; the
// additive combine is weaker than a Merkle tree against adversarial
// inputs, but the threat model here is silent replica divergence and
// backup corruption, not hostile proofs.
type digest [4]uint64

// add folds another digest in, lane-wise mod 2^64.
func (d *digest) add(o digest) {
	d[0] += o[0]
	d[1] += o[1]
	d[2] += o[2]
	d[3] += o[3]
}

// entryDigest hashes one posting's content. Node identity is pointer-
// valued and process-local, so it never enters the hash: the label
// pair and level are what replicas must agree on. Fences are derived
// from entry labels and attr key sets from node attributes, so
// neither is hashed separately — a fence that disagrees with its
// entries is caught by checkChunks, not the digest.
func entryDigest(e document.Entry) digest {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], e.Label.Begin)
	binary.LittleEndian.PutUint64(buf[8:], e.Label.End)
	binary.LittleEndian.PutUint64(buf[16:], uint64(e.Level))
	s := sha256.Sum256(buf[:])
	var d digest
	d[0] = binary.LittleEndian.Uint64(s[0:])
	d[1] = binary.LittleEndian.Uint64(s[8:])
	d[2] = binary.LittleEndian.Uint64(s[16:])
	d[3] = binary.LittleEndian.Uint64(s[24:])
	return d
}

// runDigest sums a begin-sorted entry run.
func runDigest(es []document.Entry) digest {
	var d digest
	for i := range es {
		d.add(entryDigest(es[i]))
	}
	return d
}

// contentSum returns the chunk's cached content digest, computing it
// at most once — a chunk is immutable, so the digest is computed the
// first time any version sharing the chunk asks and reused by every
// later version and diff.
func (c *chunk) contentSum() digest {
	c.sumOnce.Do(func() { c.sum = runDigest(c.entries) })
	return c.sum
}

// contentSum returns the tag's cached digest: the lane-wise sum of its
// chunks' digests. Shared chunks contribute their already-computed
// sums, so a freshly patched postings re-hashes only the chunks the
// patch rebuilt — O(changed chunks × chunkSize) SHA-256 work plus an
// O(chunks) summation.
func (p *postings) contentSum() digest {
	p.sumOnce.Do(func() {
		var d digest
		for _, c := range p.chunks {
			d.add(c.contentSum())
		}
		p.sum = d
	})
	return p.sum
}

// RootHash returns the version's root content hash, computing it at
// most once (the version is immutable). The root finalizes the per-tag
// multiset digests under their tag names in sorted order, so it binds
// which tag every posting lives in, not just the label multiset.
//
// Cost profile: the first call on a freshly built index hashes every
// entry; a call on a version derived with Apply reuses every shared
// chunk's cached digest and pays only for the chunks the batch
// rebuilt, plus O(tags) finalization — the COW sharing that makes
// per-commit hashing affordable.
func (ix *Index) RootHash() Hash {
	ix.rootOnce.Do(func() {
		tags := make([]string, 0, len(ix.tags))
		for tag := range ix.tags {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		h := sha256.New()
		h.Write([]byte("LTIXROOT\x01"))
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(len(tags)))
		h.Write(buf[:])
		for _, tag := range tags {
			p := ix.tags[tag]
			binary.LittleEndian.PutUint64(buf[:], uint64(len(tag)))
			h.Write(buf[:])
			h.Write([]byte(tag))
			binary.LittleEndian.PutUint64(buf[:], uint64(p.count))
			h.Write(buf[:])
			d := p.contentSum()
			for _, lane := range d {
				binary.LittleEndian.PutUint64(buf[:], lane)
				h.Write(buf[:])
			}
		}
		copy(ix.root[:], h.Sum(nil))
	})
	return ix.root
}

// RootFrom computes the canonical root hash of a plain TagIndex by the
// same construction as Index.RootHash, without building chunks. It is
// the hash oracle: Verify recomputes the root from ground truth through
// this independent path and compares, so a stale cached chunk or tag
// digest cannot hide behind the cache that produced it.
func RootFrom(ti document.TagIndex) Hash {
	tags := make([]string, 0, len(ti))
	for tag, posts := range ti {
		if len(posts) > 0 {
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	h := sha256.New()
	h.Write([]byte("LTIXROOT\x01"))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(tags)))
	h.Write(buf[:])
	for _, tag := range tags {
		posts := ti[tag]
		binary.LittleEndian.PutUint64(buf[:], uint64(len(tag)))
		h.Write(buf[:])
		h.Write([]byte(tag))
		binary.LittleEndian.PutUint64(buf[:], uint64(len(posts)))
		h.Write(buf[:])
		d := runDigest(posts)
		for _, lane := range d {
			binary.LittleEndian.PutUint64(buf[:], lane)
			h.Write(buf[:])
		}
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}
