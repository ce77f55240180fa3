package index

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// TestRootHashPartitionIndependence pins the property the replication
// integrity check leans on: the root hash is a function of the indexed
// content only, not of how the content happens to be chunked. The same
// document indexed at wildly different chunk sizes — and an
// incrementally patched version vs a fresh rebuild of the same state —
// must agree on the root hash.
func TestRootHashPartitionIndependence(t *testing.T) {
	tags := []string{"a", "b", "c", "d"}
	d := loadTracked(t, `<r><a/><b/><c/></r>`)
	ix2 := BuildSized(d, 2)
	ix8 := BuildSized(d, 8)
	ixD := Build(d)
	d.TakeChanges()
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 60; round++ {
		for i := 0; i < 3; i++ {
			mutate(t, d, rng, tags)
		}
		ch := d.TakeChanges()
		var err error
		if ix2, err = ix2.Apply(d, ch); err != nil {
			t.Fatal(err)
		}
		if ix8, err = ix8.Apply(d, ch); err != nil {
			t.Fatal(err)
		}
		if ixD, err = ixD.Apply(d, ch); err != nil {
			t.Fatal(err)
		}
		fresh := Build(d)
		want := fresh.RootHash()
		for _, ix := range []*Index{ix2, ix8, ixD} {
			if got := ix.RootHash(); got != want {
				t.Fatalf("round %d: chunk-size-%d root hash %x, fresh rebuild %x",
					round, ix.ChunkSize(), got, want)
			}
		}
		if oracle := RootFrom(d.BuildTagIndex()); oracle != want {
			t.Fatalf("round %d: RootFrom oracle %x disagrees with Build %x", round, oracle, want)
		}
	}
}

// TestRootHashSensitivity: any content change — including a pure
// relabel with the same node set — must move the root hash.
func TestRootHashSensitivity(t *testing.T) {
	d := loadTracked(t, `<r><a/><a/><b/></r>`)
	ix := Build(d)
	d.TakeChanges()
	seen := map[Hash]int{ix.RootHash(): 0}
	for i := 1; i <= 20; i++ {
		if _, err := d.InsertElement(d.X.Root, 0, "a"); err != nil {
			t.Fatal(err)
		}
		var err error
		if ix, err = ix.Apply(d, d.TakeChanges()); err != nil {
			t.Fatal(err)
		}
		h := ix.RootHash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("version %d repeats version %d's root hash", i, prev)
		}
		seen[h] = i
	}
}

// diffOracle computes the ground-truth change set between two versions
// from their flattened postings: a node-level diff, with removed/added
// pairs carrying identical (tag, label, level) cancelled — Diff's
// documented index-content semantics.
func diffOracle(a, b *Index) map[*xmldom.Node]Change {
	snap := func(ix *Index) map[*xmldom.Node]document.Entry {
		m := make(map[*xmldom.Node]document.Entry)
		for _, e := range ix.Postings("*") {
			m[e.Node] = e
		}
		return m
	}
	am, bm := snap(a), snap(b)
	out := make(map[*xmldom.Node]Change)
	type content struct {
		tag string
		lab document.Label
		lvl int
	}
	removed := make(map[content]*xmldom.Node)
	for n, e := range am {
		if _, ok := bm[n]; !ok {
			out[n] = Change{Tag: n.Tag(), Node: n, Kind: Removed, Old: e.Label, Level: e.Level, OldLevel: e.Level}
			removed[content{n.Tag(), e.Label, e.Level}] = n
		}
	}
	for n, e := range bm {
		if prev, ok := am[n]; !ok {
			key := content{n.Tag(), e.Label, e.Level}
			if twin, neutral := removed[key]; neutral {
				delete(out, twin) // content-neutral replacement: cancels
				delete(removed, key)
				continue
			}
			out[n] = Change{Tag: n.Tag(), Node: n, Kind: Added, New: e.Label, Level: e.Level}
		} else if prev.Label != e.Label || prev.Level != e.Level {
			out[n] = Change{Tag: n.Tag(), Node: n, Kind: Relabeled, Old: prev.Label, New: e.Label, Level: e.Level, OldLevel: prev.Level}
		}
	}
	return out
}

// TestDiffOracle is the differential property test for the hash-pruned
// diff walk: across random mutation histories at several chunk sizes,
// Diff(a, b) must emit exactly the change set the full-snapshot oracle
// computes — for adjacent versions, across version gaps, and in both
// directions.
func TestDiffOracle(t *testing.T) {
	tags := []string{"a", "b", "c", "d", "e"}
	for _, chunkSize := range []int{2, 8, DefaultChunkSize} {
		t.Run(fmt.Sprintf("chunk=%d", chunkSize), func(t *testing.T) {
			d := loadTracked(t, `<r><a/><b/><c/></r>`)
			ix := BuildSized(d, chunkSize)
			d.TakeChanges()
			rng := rand.New(rand.NewSource(int64(chunkSize) + 7))
			history := []*Index{ix}
			for round := 0; round < 80; round++ {
				for i, k := 0, rng.Intn(3)+1; i < k; i++ {
					mutate(t, d, rng, tags)
				}
				next, err := ix.Apply(d, d.TakeChanges())
				if err != nil {
					t.Fatal(err)
				}
				ix = next
				history = append(history, ix)
				// Adjacent pair, a random gap, and the reverse direction.
				pairs := [][2]*Index{
					{history[len(history)-2], ix},
					{history[rng.Intn(len(history))], ix},
					{ix, history[rng.Intn(len(history))]},
				}
				for _, pr := range pairs {
					checkDiff(t, pr[0], pr[1])
				}
			}
		})
	}
}

// checkDiff runs Diff(a, b) and compares the emitted change set with
// the oracle, node by node.
func checkDiff(t *testing.T, a, b *Index) {
	t.Helper()
	want := diffOracle(a, b)
	got := make(map[*xmldom.Node]Change)
	st, err := Diff(a, b, func(c Change) error {
		if _, dup := got[c.Node]; dup {
			return fmt.Errorf("node emitted twice (tag %q)", c.Tag)
		}
		got[c.Node] = c
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Diff emitted %d changes, oracle has %d", len(got), len(want))
	}
	if st.Changes != len(want) {
		t.Fatalf("DiffStats.Changes %d, oracle has %d", st.Changes, len(want))
	}
	for n, w := range want {
		g, ok := got[n]
		if !ok {
			t.Fatalf("Diff missed %s of <%s> %v", w.Kind, w.Tag, w.New)
		}
		if g != w {
			t.Fatalf("Diff change %+v, oracle %+v", g, w)
		}
	}
}

// TestDiffSkipsSharedChunks pins the O(changed chunks) claim at the
// walk level: after one small mutation in a many-chunk document, the
// diff must decode only a handful of chunks and skip the rest by
// pointer identity — and an identical pair must decode none at all.
func TestDiffSkipsSharedChunks(t *testing.T) {
	d := loadTracked(t, `<r></r>`)
	for i := 0; i < 600; i++ {
		if _, err := d.InsertElement(d.X.Root, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	ix := BuildSized(d, 16)
	d.TakeChanges()
	total := ix.Chunks("x")
	if total < 30 {
		t.Fatalf("expected a many-chunk tag, got %d chunks", total)
	}

	if _, err := d.InsertElement(d.X.Root, 300, "x"); err != nil {
		t.Fatal(err)
	}
	next, err := ix.Apply(d, d.TakeChanges())
	if err != nil {
		t.Fatal(err)
	}
	checkDiff(t, ix, next)
	st, err := Diff(ix, next, func(Change) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// One insert plus the O(log n) neighbors an L-Tree split relabels.
	if st.Changes < 1 || st.Changes > 8 {
		t.Fatalf("one insert produced %d changes", st.Changes)
	}
	if st.ChunksTouched > 6 {
		t.Fatalf("diff decoded %d chunks of %d for a one-entry change", st.ChunksTouched, total)
	}
	if st.ChunksShared < total-4 {
		t.Fatalf("diff shared only %d of %d chunks", st.ChunksShared, total)
	}

	st, err = Diff(next, next, func(Change) error {
		t.Fatal("identical versions emitted a change")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksTouched != 0 {
		t.Fatalf("identical diff decoded %d chunks", st.ChunksTouched)
	}
}
