package index

import (
	"strings"
	"testing"

	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// FuzzChunkSplitMerge drives the chunk split/merge machinery with an
// arbitrary byte-encoded mutation script at an aggressively small chunk
// size, then checks the full invariant set after every batch: the
// patched index must match a flat ground-truth rebuild (Verify) and
// hold the chunk invariants (fences exact, sizes within [size/4, size],
// begins strictly increasing). Each script byte encodes one mutation:
// op = b%4 (insert element / insert subtree / delete / move), target
// position = b/4; a zero byte commits the pending batch. Inserted
// elements carry script-derived attributes, so the per-chunk attribute
// summaries and maxEnd fences added for predicate pushdown are on the
// fuzzed invariant surface (Verify checks every present attr key/value
// is claimed by its chunk's summary and no entry End exceeds maxEnd).
func FuzzChunkSplitMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 9, 13, 0, 17, 21, 0})
	f.Add([]byte{1, 1, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 0})
	f.Add([]byte{255, 254, 253, 0, 252, 251, 0, 5, 5, 5, 5, 5, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			t.Skip("script budget")
		}
		d, err := document.Parse(strings.NewReader(`<r><a id="v1"/><b cat="rare" role="v0"/></r>`), core.Params{F: 4, S: 2})
		if err != nil {
			t.Fatal(err)
		}
		d.TrackChanges()
		ix := BuildSized(d, 4)
		d.TakeChanges()
		tags := []string{"a", "b", "c"}

		commit := func() {
			next, err := ix.Apply(d, d.TakeChanges())
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			ix = next
			if err := Verify(ix, d); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range script {
			if b == 0 {
				commit()
				continue
			}
			els := d.Elements("*")
			n := els[int(b/4)%len(els)]
			switch b % 4 {
			case 0, 1:
				// Attributes travel with the insert, as a writer's do:
				// summaries are built per immutable chunk at Apply time, so
				// these must be claimed by the owning chunk's summary or
				// Verify fails. A raw SetAttr after the insert would bump
				// the root's AttrGen and switch the exact key-set check off
				// for the rest of the script.
				var attrs []xmldom.Attr
				if b%3 != 0 {
					keys := []string{"id", "cat", "role"}
					attrs = append(attrs, xmldom.Attr{Name: keys[int(b/16)%len(keys)], Value: "v" + string(rune('0'+b%8))})
					if b%5 == 0 {
						attrs = append(attrs, xmldom.Attr{Name: "rare", Value: "x"})
					}
				}
				if _, err := d.InsertElement(n, int(b)%(n.NumChildren()+1), tags[int(b)%len(tags)], attrs...); err != nil {
					t.Fatal(err)
				}
			case 2:
				if n != d.X.Root {
					if err := d.DeleteSubtree(n); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				target := els[int(b/8)%len(els)]
				if n == d.X.Root || target == n {
					continue
				}
				err := d.Move(n, target, int(b)%(target.NumChildren()+1))
				if err != nil && err != xmldom.ErrCycle && err != document.ErrUnbound && err != xmldom.ErrRange {
					t.Fatal(err)
				}
			}
		}
		commit()
		if err := d.Check(); err != nil {
			t.Fatal(err)
		}
		if !ix.SummariesFresh() {
			t.Fatal("chunk summaries went stale: the exact key-set check was skipped")
		}
	})
}
