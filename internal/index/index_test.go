package index

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/xmldom"
)

var p82 = core.Params{F: 8, S: 2}

func loadTracked(t *testing.T, src string) *document.Doc {
	t.Helper()
	d, err := document.Parse(strings.NewReader(src), p82)
	if err != nil {
		t.Fatal(err)
	}
	d.TrackChanges()
	return d
}

// equal checks an incremental index against a freshly built ground-truth
// snapshot: same tags, same nodes, same labels, same levels, same order
// (plus the chunk invariants, via Verify).
func equal(t *testing.T, got *Index, d *document.Doc) {
	t.Helper()
	if err := Verify(got, d); err != nil {
		t.Fatal(err)
	}
}

// apply drains the pending change batch into the next index version,
// failing the test on a patch error.
func apply(t *testing.T, ix *Index, d *document.Doc) *Index {
	t.Helper()
	next, err := ix.Apply(d, d.TakeChanges())
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestApplyInsert(t *testing.T) {
	d := loadTracked(t, `<r><a/><b/></r>`)
	ix := Build(d)
	d.TakeChanges() // building already reflects the load

	if _, err := d.InsertElement(d.X.Root, 1, "c"); err != nil {
		t.Fatal(err)
	}
	ix = apply(t, ix, d)
	equal(t, ix, d)
	if len(ix.Postings("c")) != 1 {
		t.Fatal("inserted element missing from index")
	}
}

func TestApplyDelete(t *testing.T) {
	d := loadTracked(t, `<r><a><x/></a><b/></r>`)
	ix := Build(d)
	d.TakeChanges()

	if err := d.DeleteSubtree(d.X.Root.Child(0)); err != nil {
		t.Fatal(err)
	}
	ix = apply(t, ix, d)
	equal(t, ix, d)
	if len(ix.Postings("a")) != 0 || len(ix.Postings("x")) != 0 {
		t.Fatal("deleted subtree still indexed")
	}
}

func TestApplyMove(t *testing.T) {
	d := loadTracked(t, `<r><a><x/><y/></a><b/></r>`)
	ix := Build(d)
	d.TakeChanges()

	x := d.X.Root.Child(0).Child(0)
	b := d.X.Root.Child(1)
	if err := d.Move(x, b, 0); err != nil {
		t.Fatal(err)
	}
	ix = apply(t, ix, d)
	equal(t, ix, d)
}

// TestApplyRandomized drives a long random mutation stream (inserts that
// force splits, deletes, moves, subtree pastes) and checks the patched
// index against a fresh BuildTagIndex after every batch.
func TestApplyRandomized(t *testing.T) {
	d := loadTracked(t, `<r><a/><b/><c/></r>`)
	ix := Build(d)
	d.TakeChanges()
	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d", "e"}

	for step := 0; step < 400; step++ {
		els := d.Elements("*")
		n := els[rng.Intn(len(els))]
		switch op := rng.Intn(10); {
		case op < 5: // insert a fresh element
			if _, err := d.InsertElement(n, rng.Intn(n.NumChildren()+1), tags[rng.Intn(len(tags))]); err != nil {
				t.Fatal(err)
			}
		case op < 6: // paste a small subtree
			sub := xmldom.NewElement(tags[rng.Intn(len(tags))])
			if err := sub.AppendChild(xmldom.NewElement(tags[rng.Intn(len(tags))])); err != nil {
				t.Fatal(err)
			}
			if err := sub.Child(0).AppendChild(xmldom.NewText("t")); err != nil {
				t.Fatal(err)
			}
			if err := d.InsertSubtree(n, rng.Intn(n.NumChildren()+1), sub); err != nil {
				t.Fatal(err)
			}
		case op < 8: // delete
			if n != d.X.Root {
				if err := d.DeleteSubtree(n); err != nil {
					t.Fatal(err)
				}
			}
		default: // move
			target := els[rng.Intn(len(els))]
			if n == d.X.Root || target == n {
				continue
			}
			// ErrRange: moving under the old parent can invalidate the slot
			// picked before the detach; the subtree ends up deleted, which
			// the index must track all the same.
			err := d.Move(n, target, rng.Intn(target.NumChildren()+1))
			if err != nil && err != xmldom.ErrCycle && err != document.ErrUnbound && err != xmldom.ErrRange {
				t.Fatal(err)
			}
		}
		ix = apply(t, ix, d)
		// Checking every step is O(n) each; the stream is small enough.
		equal(t, ix, d)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatched folds several mutations into one change batch before a
// single Apply — the Store's Update transaction shape.
func TestApplyBatched(t *testing.T) {
	d := loadTracked(t, `<r><a/><b/></r>`)
	ix := Build(d)
	d.TakeChanges()

	a := d.X.Root.Child(0)
	if _, err := d.InsertElement(a, 0, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertElement(a, 1, "y"); err != nil {
		t.Fatal(err)
	}
	x := a.Child(0)
	if err := d.DeleteSubtree(x); err != nil { // add then delete in one batch
		t.Fatal(err)
	}
	if err := d.Move(a.Child(0), d.X.Root, 0); err != nil { // y to the front
		t.Fatal(err)
	}
	ix = apply(t, ix, d)
	equal(t, ix, d)
}

// TestCopyOnWriteSharing: versions share posting lists for untouched tags
// and old versions stay intact after Apply.
func TestCopyOnWriteSharing(t *testing.T) {
	d := loadTracked(t, `<r><a/><a/><b/></r>`)
	v1 := Build(d)
	d.TakeChanges()
	bBefore := v1.Postings("b")

	if _, err := d.InsertElement(d.X.Root, 0, "a"); err != nil {
		t.Fatal(err)
	}
	v2 := apply(t, v1, d)

	if len(v1.Postings("a")) != 2 {
		t.Fatal("old version mutated by Apply")
	}
	if len(bBefore) != 1 || len(v1.Postings("b")) != 1 {
		t.Fatal("old version's b postings changed")
	}
	if len(v2.Postings("a")) != 3 {
		t.Fatal("new version missing the insert")
	}
	// Postings materializes, so sharing is asserted on the chunks
	// themselves: the untouched tag must point at the same chunk.
	if v1.tags["b"].chunks[0] != v2.tags["b"].chunks[0] {
		t.Fatal("untouched tag chunks not shared between versions")
	}
	if v1.tags["a"].chunks[0] == v2.tags["a"].chunks[0] {
		t.Fatal("patched tag still shares its chunk with the old version")
	}
}

func TestAllFlattens(t *testing.T) {
	d := loadTracked(t, `<r><a/><b/><a/></r>`)
	ix := Build(d)
	all := ix.Postings("*")
	if len(all) != 4 {
		t.Fatalf("* postings = %d, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Label.Begin >= all[i].Label.Begin {
			t.Fatal("* postings not begin-sorted")
		}
	}
}

// TestVerifyCatchesFenceCorruption: the pushdown invariants added to
// checkChunks are live — an understated maxEnd fence, a key set that
// disclaims a present attribute, or a key set holding a key no entry
// carries must fail Verify. (Soundness of chunk skipping depends on the
// first two; the third keeps the set exact.)
func TestVerifyCatchesFenceCorruption(t *testing.T) {
	d := loadTracked(t, `<r><a id="v1"/><a/><a cat="rare"/><a/><a role="v2"/></r>`)
	ix := BuildSized(d, 2)
	if err := Verify(ix, d); err != nil {
		t.Fatalf("clean index failed verify: %v", err)
	}
	p := ix.tags["a"]
	if len(p.chunks) < 2 {
		t.Fatalf("want >=2 chunks at size 2, got %d", len(p.chunks))
	}

	saved := p.fences[0].maxEnd
	p.fences[0].maxEnd = 0
	if err := Verify(ix, d); err == nil || !strings.Contains(err.Error(), "maxEnd") {
		t.Fatalf("understated maxEnd not caught: %v", err)
	}
	p.fences[0].maxEnd = saved

	savedKeys := p.chunks[0].keys
	p.chunks[0].keys = nil
	if err := Verify(ix, d); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("cleared attr key set not caught: %v", err)
	}
	p.chunks[0].keys = append(slices.Clone(savedKeys), ^uint64(0))
	if err := Verify(ix, d); err == nil || !strings.Contains(err.Error(), "extra key") {
		t.Fatalf("attr key set with an extra key not caught: %v", err)
	}
	p.chunks[0].keys = savedKeys
	if err := Verify(ix, d); err != nil {
		t.Fatalf("restored index failed verify: %v", err)
	}
}
