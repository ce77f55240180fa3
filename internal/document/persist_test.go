package document

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/xmldom"
)

func TestSnapshotRestoreBasic(t *testing.T) {
	d := loadString(t, figure2XML, p42)
	// Mutate: inserts (forcing a split) and a tombstoning delete.
	b := d.X.Root.Child(0)
	if _, err := d.InsertElement(b, 0, "D"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText(b, 1, "hello <world> & co"); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteSubtree(d.X.Root.Child(1)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Check(); err != nil {
		t.Fatal(err)
	}
	// Identical labels for corresponding nodes (walk both docs in step).
	wantNums := d.tree.Nums()
	gotNums := restored.tree.Nums()
	if len(wantNums) != len(gotNums) {
		t.Fatalf("%d labels, want %d", len(gotNums), len(wantNums))
	}
	for i := range wantNums {
		if wantNums[i] != gotNums[i] {
			t.Fatalf("label %d: %d, want %d", i, gotNums[i], wantNums[i])
		}
	}
	if restored.tree.Height() != d.tree.Height() {
		t.Fatal("height not preserved")
	}
	if restored.tree.Live() != d.tree.Live() || restored.tree.Len() != d.tree.Len() {
		t.Fatal("tombstone slots not preserved")
	}
	if restored.X.String() != d.X.String() {
		t.Fatalf("document text changed:\n%s\nvs\n%s", restored.X.String(), d.X.String())
	}
}

// TestSnapshotAdjacentTextNodes is the regression for the structural DOM
// encoding: adjacent text siblings must survive (textual XML would merge
// them and break the token-leaf correspondence).
func TestSnapshotAdjacentTextNodes(t *testing.T) {
	d := loadString(t, `<r>a</r>`, p42)
	if _, err := d.InsertText(d.X.Root, 1, "b"); err != nil {
		t.Fatal(err)
	}
	if d.X.Root.NumChildren() != 2 {
		t.Fatal("setup: need two adjacent text nodes")
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.X.Root.NumChildren() != 2 {
		t.Fatalf("adjacent text nodes merged: %d children", restored.X.Root.NumChildren())
	}
	if err := restored.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestoreContinuesWorking(t *testing.T) {
	d := loadString(t, `<r><a/><b/></r>`, p42)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		els := d.Elements("*")
		parent := els[rng.Intn(len(els))]
		if _, err := d.InsertElement(parent, rng.Intn(parent.NumChildren()+1), "x"); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Keep editing the restored document heavily.
	for i := 0; i < 300; i++ {
		els := restored.Elements("*")
		parent := els[rng.Intn(len(els))]
		if _, err := restored.InsertElement(parent, rng.Intn(parent.NumChildren()+1), "y"); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("garbage restore = %v, want storage.ErrCorrupt", err)
	}
}

func TestMove(t *testing.T) {
	d := loadString(t, `<r><a><x/><y/></a><b/></r>`, p42)
	a := d.X.Root.Child(0)
	b := d.X.Root.Child(1)
	x := a.Child(0)
	relBefore := d.Stats().Relabelings()
	if err := d.Move(x, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if x.Parent() != b {
		t.Fatal("move did not reparent")
	}
	// Labels reflect the new position.
	if anc, _ := d.IsAncestor(b, x); !anc {
		t.Fatal("b should contain x after move")
	}
	if anc, _ := d.IsAncestor(a, x); anc {
		t.Fatal("a should no longer contain x")
	}
	// Move cost: tombstones (free) + one bulk run.
	if moved := d.Stats().Relabelings() - relBefore; moved == 0 {
		t.Fatal("move must relabel the moved tokens")
	}
	st := d.Stats()
	if st.BulkInserts != 1 {
		t.Fatalf("move should use one run insertion, got %d", st.BulkInserts)
	}

	// Error paths.
	if err := d.Move(d.X.Root, b, 0); err != ErrRootEdit {
		t.Fatalf("moving root = %v", err)
	}
	if err := d.Move(b, b.Child(0), 0); err != xmldom.ErrCycle {
		t.Fatalf("moving into own subtree = %v", err)
	}
	stranger := xmldom.NewElement("s")
	if err := d.Move(stranger, b, 0); err != ErrUnbound {
		t.Fatalf("moving stranger = %v", err)
	}
	if err := d.Move(x, stranger, 0); err != ErrUnbound {
		t.Fatalf("moving onto stranger = %v", err)
	}
}

func TestMoveStress(t *testing.T) {
	d := loadString(t, `<r><a/><b/><c/></r>`, p42)
	rng := rand.New(rand.NewSource(9))
	// Grow, then shuffle subtrees around randomly.
	for i := 0; i < 150; i++ {
		els := d.Elements("*")
		parent := els[rng.Intn(len(els))]
		if _, err := d.InsertElement(parent, rng.Intn(parent.NumChildren()+1), "n"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i++ {
		els := d.Elements("*")
		n := els[rng.Intn(len(els))]
		target := els[rng.Intn(len(els))]
		if n == d.X.Root || target == n {
			continue
		}
		// Skip cycles; Move reports them, and that is fine too.
		err := d.Move(n, target, rng.Intn(target.NumChildren()+1))
		if err != nil && err != xmldom.ErrCycle && err != ErrUnbound {
			t.Fatalf("move %d: %v", i, err)
		}
		if i%20 == 19 {
			if err := d.Check(); err != nil {
				t.Fatalf("move %d: %v", i, err)
			}
		}
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}
