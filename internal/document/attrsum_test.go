package document

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ltree-db/ltree/internal/xmldom"
)

// TestAttrKeySetExact: every added key is found, duplicate keys collapse
// to one, and keys never added are never reported present — the exact
// answer chunk-level predicate pushdown relies on. A default-size chunk
// of elements with distinct ids saturates any fixed-width filter; the
// exact set must still reject every absent key. The two shapes cover
// the stack-buffered and the heap-buffered build.
func TestAttrKeySetExact(t *testing.T) {
	for _, c := range []struct{ elems, attrs int }{{100, 1}, {256, 3}} {
		t.Run(fmt.Sprintf("%dx%d", c.elems, c.attrs), func(t *testing.T) {
			want := map[uint64]bool{}
			var es []Entry
			for i := 0; i < c.elems; i++ {
				var attrs []xmldom.Attr
				for a := 0; a < c.attrs; a++ {
					name := fmt.Sprintf("a%d", a)
					val := fmt.Sprintf("v%d", i>>a) // higher attrs repeat values
					attrs = append(attrs, xmldom.Attr{Name: name, Value: val})
					want[AttrKeyHash(name)] = true
					want[AttrKVHash(name, val)] = true
				}
				es = append(es, Entry{Node: xmldom.NewElement("e", attrs...)})
			}
			es = append(es, Entry{Node: xmldom.NewElement("e")}) // adds nothing
			s := KeySetOf(es)
			if len(s) != len(want) {
				t.Fatalf("key set holds %d keys, want %d distinct", len(s), len(want))
			}
			if !slices.IsSorted(s) {
				t.Fatal("key set not sorted")
			}
			for h := range want {
				if !s.Has(h) {
					t.Fatalf("added key %#x not found", h)
				}
			}
			rng := rand.New(rand.NewSource(int64(c.elems)))
			for i := 0; i < 10000; i++ {
				h := rng.Uint64()
				if !want[h] && s.Has(h) {
					t.Fatalf("absent key %#x reported present", h)
				}
				// Near-misses of present keys probe the search's edges.
				if h := AttrKVHash("a0", fmt.Sprintf("w%d", i)); s.Has(h) {
					t.Fatalf("absent pair a0=w%d reported present", i)
				}
			}
		})
	}
	if s := KeySetOf([]Entry{{Node: xmldom.NewElement("e")}}); s != nil {
		t.Fatalf("attribute-free run has key set %v, want nil", s)
	}
}
