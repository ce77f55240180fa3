package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/query"
	"github.com/ltree-db/ltree/internal/workload"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// mutate applies one random document mutation; it reports whether the
// document plausibly changed (some moves legally fail).
func mutate(t *testing.T, d *document.Doc, rng *rand.Rand, tags []string) {
	t.Helper()
	els := d.Elements("*")
	n := els[rng.Intn(len(els))]
	switch op := rng.Intn(12); {
	case op < 6: // insert a fresh element, attributed on every other size
		// The attribute is derived from the document size, not drawn from
		// rng, so the mutation sequence is the same with or without it.
		var attrs []xmldom.Attr
		if len(els)%2 == 0 {
			attrs = []xmldom.Attr{{Name: "id", Value: fmt.Sprintf("v%d", len(els)%5)}}
		}
		if _, err := d.InsertElement(n, rng.Intn(n.NumChildren()+1), tags[rng.Intn(len(tags))], attrs...); err != nil {
			t.Fatal(err)
		}
	case op < 7: // paste a small subtree
		sub := xmldom.NewElement(tags[rng.Intn(len(tags))])
		if err := sub.AppendChild(xmldom.NewElement(tags[rng.Intn(len(tags))])); err != nil {
			t.Fatal(err)
		}
		if err := d.InsertSubtree(n, rng.Intn(n.NumChildren()+1), sub); err != nil {
			t.Fatal(err)
		}
	case op < 10: // delete
		if n != d.X.Root {
			if err := d.DeleteSubtree(n); err != nil {
				t.Fatal(err)
			}
		}
	default: // move
		target := els[rng.Intn(len(els))]
		if n == d.X.Root || target == n {
			return
		}
		err := d.Move(n, target, rng.Intn(target.NumChildren()+1))
		if err != nil && err != xmldom.ErrCycle && err != document.ErrUnbound && err != xmldom.ErrRange {
			t.Fatal(err)
		}
	}
}

// TestDifferentialChunkedVsFlat is the acceptance property test for the
// chunked representation: across well over a thousand random mutation
// batches — at several chunk sizes, including tiny ones that force
// constant splitting and merging — every incrementally patched chunked
// version must agree with a flat ground-truth rebuild on nodes, labels,
// levels, and order (Verify), and must hold the chunk invariants.
// Concurrent readers drain cursors of retired versions the whole time,
// so `go test -race` doubles this as the COW aliasing check.
func TestDifferentialChunkedVsFlat(t *testing.T) {
	tags := []string{"a", "b", "c", "d", "e", "f"}
	for _, chunkSize := range []int{2, 3, 8, 64, DefaultChunkSize} {
		t.Run(fmt.Sprintf("chunk=%d", chunkSize), func(t *testing.T) {
			d := loadTracked(t, `<r><a/><b/><c/></r>`)
			ix := BuildSized(d, chunkSize)
			d.TakeChanges()
			rng := rand.New(rand.NewSource(int64(chunkSize)))

			var wg sync.WaitGroup
			defer wg.Wait()
			batches := 250
			if chunkSize == DefaultChunkSize {
				batches = 350
			}
			for batch := 0; batch < batches; batch++ {
				for i, k := 0, rng.Intn(4)+1; i < k; i++ {
					mutate(t, d, rng, tags)
				}
				prev := ix
				next, err := ix.Apply(d, d.TakeChanges())
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				ix = next
				if err := Verify(ix, d); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if batch%25 == 0 {
					// A retired version must stay intact and readable while
					// later versions are derived (copy-on-write, no aliasing).
					wg.Add(1)
					go func(old *Index, wantLen int) {
						defer wg.Done()
						got := 0
						cur := old.Cursor("*")
						last := uint64(0)
						for e, ok := cur.Next(); ok; e, ok = cur.Next() {
							if got > 0 && e.Label.Begin <= last {
								t.Error("retired version lost begin order")
								return
							}
							last = e.Label.Begin
							got++
						}
						if got != wantLen {
							t.Errorf("retired version drained %d entries, want %d", got, wantLen)
						}
					}(prev, prev.Len())
				}
			}
			// Attributes arrived through the document layer, so Verify
			// checked every chunk's key set for exactness on every batch.
			if !ix.SummariesFresh() {
				t.Fatal("key sets went stale: Verify skipped their exactness check")
			}
		})
	}
}

// TestAllCursorGlobalOrder is the "*" property test: across versions,
// the merged wildcard cursor must yield every element exactly once in
// strictly increasing begin order — global document order — and agree
// with a ground-truth rebuild's "*" cursor on full drains, on random
// Next/Seek interleavings, and on query.DescendantsCursor ranges (whose
// Seek fans out to every tag's fence search).
func TestAllCursorGlobalOrder(t *testing.T) {
	tags := []string{"a", "b", "c", "d"}
	d := loadTracked(t, `<r><a/><b/></r>`)
	ix := BuildSized(d, 4) // small chunks: the merge crosses many of them
	d.TakeChanges()
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 120; round++ {
		for i := 0; i < 3; i++ {
			mutate(t, d, rng, tags)
		}
		var err error
		ix, err = ix.Apply(d, d.TakeChanges())
		if err != nil {
			t.Fatal(err)
		}
		oracle := d.BuildTagIndex()
		want := document.DrainCursor(oracle.Cursor("*"))
		got := document.DrainCursor(ix.Cursor("*"))
		if len(got) != len(want) {
			t.Fatalf("round %d: \"*\" cursor drained %d entries, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].Node != want[i].Node || got[i].Label != want[i].Label {
				t.Fatalf("round %d: \"*\" entry %d diverges from ground truth", round, i)
			}
			if i > 0 && got[i].Label.Begin <= got[i-1].Label.Begin {
				t.Fatalf("round %d: \"*\" entry %d out of global order", round, i)
			}
		}

		// Random Next/Seek interleavings, lock-step against the oracle;
		// Seek targets land ahead of, on and behind the current position.
		maxBegin := want[len(want)-1].Label.Begin
		for trial := 0; trial < 4; trial++ {
			sameSteps(t, fmt.Sprintf("round %d trial %d", round, trial), rng,
				ix.Cursor("*"), oracle.Cursor("*"), maxBegin+2)
		}

		// Subtree ranges: the rangeCursor over the merged stream.
		for trial := 0; trial < 3; trial++ {
			anchor := want[rng.Intn(len(want))]
			sameSteps(t, fmt.Sprintf("round %d descendants of %d", round, anchor.Label.Begin), rng,
				query.DescendantsCursor(ix, anchor), query.DescendantsCursor(oracle, anchor), maxBegin+2)
		}
	}
}

// sameSteps drives two cursors with one random Next/Seek sequence (Seek
// targets drawn from [0, span)) and fails on the first step where they
// disagree; it stops once both are exhausted.
func sameSteps(t *testing.T, what string, rng *rand.Rand, got, want document.Cursor, span uint64) {
	t.Helper()
	for step := 0; ; step++ {
		var g, w document.Entry
		var gok, wok bool
		op := "Next"
		if rng.Intn(3) == 0 {
			target := uint64(rng.Int63n(int64(span)))
			op = fmt.Sprintf("Seek(%d)", target)
			g, gok = got.Seek(target)
			w, wok = want.Seek(target)
		} else {
			g, gok = got.Next()
			w, wok = want.Next()
		}
		if gok != wok || g.Node != w.Node || g.Label != w.Label {
			t.Fatalf("%s step %d: %s = %v/%v, want %v/%v", what, step, op, g.Label, gok, w.Label, wok)
		}
		if !wok {
			return
		}
	}
}

// TestFreshVersionWildcardReadIsSublinear guards the fresh-version read
// cliff: the first "*" pull on a version nobody has read yet — what every
// rooted query on a follower does — must cost one head per tag, not a
// flatten and sort of the whole document (32 B per element of garbage,
// well over a megabyte here).
func TestFreshVersionWildcardReadIsSublinear(t *testing.T) {
	d, err := document.Load(workload.XMarkLite(650, 1), p82)
	if err != nil {
		t.Fatal(err)
	}
	d.TrackChanges()
	ix := Build(d)
	if n := ix.Len(); n < 50000 {
		t.Fatalf("document has %d elements, want at least 50000", n)
	}
	const budget = 64 << 10
	best := uint64(1 << 62)
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := d.InsertElement(d.X.Root, 0, "fresh"); err != nil {
			t.Fatal(err)
		}
		if ix, err = ix.Apply(d, d.TakeChanges()); err != nil {
			t.Fatal(err)
		}
		// The minimum over fresh versions discards allocations another
		// goroutine happened to make inside the window.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, ok := ix.Cursor("*").Next()
		runtime.ReadMemStats(&after)
		if !ok || e.Node != d.X.Root {
			t.Fatal("the first \"*\" entry is not the document root")
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= budget {
		t.Fatalf("first \"*\" Next on a fresh version allocated %d bytes, budget %d", best, budget)
	}
}

// TestSeekSkipsChunks pins the fence skip: seeking far ahead must land
// on the right entry without the cursor having walked the entries in
// between (observed through the chunk directory position).
func TestSeekSkipsChunks(t *testing.T) {
	d := loadTracked(t, `<r></r>`)
	for i := 0; i < 300; i++ {
		if _, err := d.InsertElement(d.X.Root, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	ix := BuildSized(d, 16)
	if ix.Chunks("x") < 10 {
		t.Fatalf("expected many chunks, got %d", ix.Chunks("x"))
	}
	all := ix.Postings("x")
	target := all[250]
	cur := ix.Cursor("x").(*chunkCursor)
	e, ok := cur.Seek(target.Label.Begin)
	if !ok || e.Node != target.Node {
		t.Fatal("Seek missed its target")
	}
	if cur.ci < 10 {
		t.Fatalf("Seek did not skip chunks (landed in chunk %d)", cur.ci)
	}
	// Seeking backwards must not retreat.
	if e2, ok := cur.Seek(all[0].Label.Begin); !ok || e2.Label.Begin <= e.Label.Begin {
		t.Fatal("Seek retreated")
	}
}

// TestApplyUnboundEntryFailsLoudly pins the silent-drop fix: a change
// batch claiming a relabel of an element that is no longer bound — with
// no removal record to explain it — must surface as an error instead of
// a quietly shrunken posting list.
func TestApplyUnboundEntryFailsLoudly(t *testing.T) {
	d := loadTracked(t, `<r><a/><a/><a/></r>`)
	ix := Build(d)
	d.TakeChanges()

	victim := d.X.Root.Child(1)
	if err := d.DeleteSubtree(victim); err != nil {
		t.Fatal(err)
	}
	d.TakeChanges() // drop the honest record of the removal

	// A batch that says "victim was relabeled" while the document no
	// longer binds it: the routed (touched-only) path must reject it.
	forged := &document.Changes{
		Added:   map[*xmldom.Node]struct{}{},
		Removed: map[*xmldom.Node]uint64{},
		Touched: map[*xmldom.Node]struct{}{victim: {}},
	}
	if _, err := ix.Apply(d, forged); err == nil {
		t.Fatal("Apply accepted a batch with an unbound, unremoved entry (touched-only path)")
	}

	// Same violation through the mixed scan path (removals force it).
	other := d.X.Root.Child(0)
	lab, err := d.Label(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSubtree(other); err != nil {
		t.Fatal(err)
	}
	d.TakeChanges()
	mixed := &document.Changes{
		Added:   map[*xmldom.Node]struct{}{},
		Removed: map[*xmldom.Node]uint64{other: lab.Begin},
		Touched: map[*xmldom.Node]struct{}{victim: {}},
	}
	if _, err := ix.Apply(d, mixed); err == nil {
		t.Fatal("Apply accepted a batch with an unbound, unremoved entry (scan path)")
	}
}
