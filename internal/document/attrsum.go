package document

import "slices"

// AttrKeySet is the exact attribute key set of a run of elements: for
// every attribute a of every element it holds both the name key
// (AttrKeyHash) and the name=value key (AttrKVHash), sorted and
// de-duplicated. The chunked index builds one per immutable chunk at
// chunk-build time, so a predicate-filtered cursor can reject a whole
// chunk — no posting decoded, no attribute list scanned — when a required
// key is absent. Has is a binary search and answers "absent" for every
// key no element carries; only a 64-bit hash collision can admit a chunk
// wrongly, and the per-entry predicate check above the cursor re-tests
// whatever a set admits. Memory is 8 B per distinct key. See DESIGN.md
// §3.5.
type AttrKeySet []uint64

// KeySetOf builds the key set of a run of entries. The keys are counted
// first, so the set is filled in one pass and returned in a slice sized
// to its distinct keys; attribute-free runs get a nil set.
func KeySetOf(es []Entry) AttrKeySet {
	n := 0
	for _, e := range es {
		n += 2 * len(e.Node.Attrs())
	}
	if n == 0 {
		return nil
	}
	// A default-size chunk of single-attribute elements fits the stack
	// buffer; only the exact copy below reaches the heap.
	var stack [512]uint64
	keys := stack[:0]
	if n > len(stack) {
		keys = make([]uint64, 0, n)
	}
	for _, e := range es {
		for _, a := range e.Node.Attrs() {
			keys = append(keys, AttrKeyHash(a.Name), AttrKVHash(a.Name, a.Value))
		}
	}
	slices.Sort(keys)
	return append(AttrKeySet(nil), slices.Compact(keys)...)
}

// Has reports whether the set holds the key hash.
func (s AttrKeySet) Has(h uint64) bool {
	_, ok := slices.BinarySearch(s, h)
	return ok
}

// FNV-1a constants (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// AttrKeyHash hashes an attribute name — the key an existence predicate
// ([@name]) probes.
func AttrKeyHash(name string) uint64 {
	return fnvString(fnvOffset, name)
}

// AttrKVHash hashes an attribute name=value pair — the key an equality
// predicate ([@name='value']) probes. It continues the same FNV-1a
// stream over name, '=', value, so no intermediate string is built; the
// '=' separator keeps ("ab","c") and ("a","bc") distinct.
func AttrKVHash(name, value string) uint64 {
	h := fnvString(fnvOffset, name)
	h ^= '='
	h *= fnvPrime
	return fnvString(h, value)
}
