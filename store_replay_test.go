package ltree_test

// Differential property test for the WAL replay path: the same random
// batch stream is applied to an always-in-memory oracle store and to a
// WAL-backed store, then the WAL store is recovered from disk (checkpoint
// + log replay). The property: recovery reproduces the oracle exactly —
// byte-identical snapshots (labels, tombstones, DOM), identical element
// order, and identical tag-index query results. Concurrent readers hammer
// the WAL store throughout so `go test -race` patrols the engine seams.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/storage"
)

const replaySeedDoc = `<site><regions><asia><item><name>lamp</name></item></asia><europe/></regions><people><person>alice</person><person>bob</person></people></site>`

// replayOp is one planned mutation, expressed store-independently: nodes
// are named by their position in the document-order element list, so the
// identical plan resolves to corresponding nodes in both stores.
type replayOp struct {
	kind     string // insert, delete, move, compact
	n, dst   int    // element list positions
	pos      int    // child index (clamped at apply time)
	fragment string
}

// planBatch draws 1–4 ops valid against the current element count. The
// leading insert keeps every batch non-empty.
func planBatch(rng *rand.Rand, nElems int) []replayOp {
	frags := []string{
		`<item><name>lamp</name></item>`,
		`<person age="3">kid</person>`,
		`<note priority="low"/>`,
		`<group><item/><item><name>x</name></item></group>`,
	}
	plan := []replayOp{{
		kind:     "insert",
		n:        rng.Intn(nElems),
		pos:      rng.Intn(4),
		fragment: frags[rng.Intn(len(frags))],
	}}
	for extra := rng.Intn(3); extra > 0; extra-- {
		switch rng.Intn(4) {
		case 0:
			plan = append(plan, replayOp{kind: "insert", n: rng.Intn(nElems), pos: rng.Intn(4), fragment: `<extra/>`})
		case 1:
			plan = append(plan, replayOp{kind: "delete", n: rng.Intn(nElems)})
		case 2:
			plan = append(plan, replayOp{kind: "move", n: rng.Intn(nElems), dst: rng.Intn(nElems), pos: rng.Intn(4)})
		case 3:
			plan = append(plan, replayOp{kind: "compact"})
		}
	}
	return plan
}

// applyBatch runs one planned batch against a store. Individual op
// failures (deleting the root, moving into a descendant, a node consumed
// by an earlier op in the same batch) are ignored: both stores see the
// same state, so they fail identically — that symmetry is part of what
// the test verifies.
func applyBatch(t *testing.T, st *ltree.Store, plan []replayOp) {
	t.Helper()
	elems := st.Elements("*")
	pick := func(i int) *ltree.Elem {
		if i >= len(elems) {
			i = len(elems) - 1
		}
		return elems[i]
	}
	compact := false
	err := st.Update(func(tx *ltree.Batch) error {
		for _, op := range plan {
			switch op.kind {
			case "insert":
				p := pick(op.n)
				_, _ = tx.InsertXML(p, min(op.pos, p.NumChildren()), op.fragment)
			case "delete":
				_ = tx.Delete(pick(op.n))
			case "move":
				dst := pick(op.dst)
				_ = tx.Move(pick(op.n), dst, min(op.pos, dst.NumChildren()))
			case "compact":
				compact = true // Compact is a store-level op, not a batch op
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if compact {
		if err := st.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
	}
}

// snapshotOf returns the store's v2 snapshot bytes.
func snapshotOf(t *testing.T, st *ltree.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// queryFingerprint renders a query result as tags+labels so result sets
// from different stores can be compared node-for-node.
func queryFingerprint(t *testing.T, st *ltree.Store, expr string) string {
	t.Helper()
	res, err := st.Query(expr)
	if err != nil {
		t.Fatalf("query %q: %v", expr, err)
	}
	var b bytes.Buffer
	for _, e := range res {
		lab, err := st.Label(e)
		if err != nil {
			t.Fatalf("query %q: result not bound: %v", expr, err)
		}
		fmt.Fprintf(&b, "<%s>(%d,%d);", e.Tag(), lab.Begin, lab.End)
	}
	return b.String()
}

// elementOrder renders the document-order element list with labels.
func elementOrder(t *testing.T, st *ltree.Store) string {
	t.Helper()
	var b bytes.Buffer
	for _, e := range st.Elements("*") {
		lab, err := st.Label(e)
		if err != nil {
			t.Fatalf("element order: %v", err)
		}
		fmt.Fprintf(&b, "<%s>(%d,%d);", e.Tag(), lab.Begin, lab.End)
	}
	return b.String()
}

var replayQueries = []string{"//item", "//name", "//item/name", "/site//person", "/site/regions/asia", "//*"}

func TestStoreWALReplayProperty(t *testing.T) {
	seeds := []int64{7, 21, 42}
	batchesPerSeed := 30
	if testing.Short() {
		seeds = seeds[:1]
		batchesPerSeed = 10
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			oracle, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			walStore, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
			if err != nil {
				t.Fatal(err)
			}
			w, err := storage.OpenWAL(dir, storage.WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := walStore.WithWAL(w); err != nil {
				t.Fatal(err)
			}

			// Concurrent readers on the WAL store while it commits: the
			// engine promises lock-free index reads during WAL appends.
			var stop atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						if _, err := walStore.Query("//item/name"); err != nil {
							return
						}
						walStore.Elements("person")
					}
				}()
			}

			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < batchesPerSeed; i++ {
				plan := planBatch(rng, len(oracle.Elements("*")))
				applyBatch(t, oracle, plan)
				applyBatch(t, walStore, plan)
			}
			stop.Store(true)
			wg.Wait()

			// The two live stores must agree before recovery is even
			// attempted (same ops, same state — the deterministic-relabel
			// premise the WAL leans on).
			oracleSnap := snapshotOf(t, oracle)
			if !bytes.Equal(oracleSnap, snapshotOf(t, walStore)) {
				t.Fatal("live WAL store diverged from oracle under identical batches")
			}

			// Crash-free recovery: checkpoint + full log replay.
			w.Close()
			w2, err := storage.OpenWAL(dir, storage.WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			recovered, err := ltree.LoadLatest(w2)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if !bytes.Equal(oracleSnap, snapshotOf(t, recovered)) {
				t.Fatal("recovered snapshot differs from oracle (labels/DOM/tombstones)")
			}
			if got, want := elementOrder(t, recovered), elementOrder(t, oracle); got != want {
				t.Fatalf("element order diverged:\n got %s\nwant %s", got, want)
			}
			for _, q := range replayQueries {
				if got, want := queryFingerprint(t, recovered, q), queryFingerprint(t, oracle, q); got != want {
					t.Fatalf("query %q diverged:\n got %s\nwant %s", q, got, want)
				}
			}
			if err := recovered.Check(); err != nil {
				t.Fatalf("recovered store failed invariants: %v", err)
			}
			if err := oracle.Check(); err != nil {
				t.Fatalf("oracle failed invariants: %v", err)
			}
		})
	}
}

// flakyWAL injects one append failure when failNext is set.
type flakyWAL struct {
	ltree.WALBackend
	failNext bool
}

var errInjected = fmt.Errorf("injected append failure")

func (f *flakyWAL) AppendBatch(payload []byte) (uint64, error) {
	if f.failNext {
		f.failNext = false
		return 0, errInjected
	}
	return f.WALBackend.AppendBatch(payload)
}

// failingCkptWAL injects one Checkpoint failure when failNext is set.
type failingCkptWAL struct {
	ltree.WALBackend
	failNext bool
}

func (f *failingCkptWAL) Checkpoint(snapshot []byte) (uint64, error) {
	if f.failNext {
		f.failNext = false
		return 0, errInjected
	}
	return f.WALBackend.Checkpoint(snapshot)
}

// openFenceStore attaches backend (wrapping a WAL in dir) to a fresh
// seed store, and commits one <logged> element through it.
func openFenceStore(t *testing.T, wrap func(ltree.WALBackend) ltree.WALBackend) (*ltree.Store, *storage.WAL) {
	t.Helper()
	st, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	if err := st.WithWAL(wrap(inner)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertElement(st.Root(), 0, "logged"); err != nil {
		t.Fatal(err)
	}
	return st, inner
}

// checkFenced asserts the fail-stop contract on a store whose last
// commit failed: the failed change (tag) is in no read, every write and
// Checkpoint is refused with ErrFenced around the injected cause, and
// reopening the log yields exactly the commits that returned nil — the
// seed plus <logged>.
func checkFenced(t *testing.T, st *ltree.Store, inner *storage.WAL, tag string) {
	t.Helper()
	version := st.IndexVersion()
	if len(st.Elements(tag)) != 0 {
		t.Fatalf("failed change <%s> is visible", tag)
	}
	for name, err := range map[string]error{
		"InsertElement": func() error { _, err := st.InsertElement(st.Root(), 0, "after"); return err }(),
		"Update": st.Update(func(b *ltree.Batch) error {
			_, err := b.InsertElement(st.Root(), 0, "after")
			return err
		}),
		"Delete":     st.Delete(st.Elements("logged")[0]),
		"Refresh":    st.Refresh(),
		"Compact":    st.Compact(),
		"Checkpoint": func() error { _, err := st.Checkpoint(); return err }(),
		"Snapshot":   st.Snapshot(&bytes.Buffer{}),
	} {
		if !errors.Is(err, ltree.ErrFenced) || !errors.Is(err, errInjected) {
			t.Fatalf("%s on a fenced store: err=%v, want ErrFenced wrapping the cause", name, err)
		}
	}
	if err := st.View(func(tx *ltree.Txn) error {
		if len(tx.Elements(tag)) != 0 || len(tx.Elements("after")) != 0 || len(tx.Elements("logged")) != 1 {
			return fmt.Errorf("view does not serve the last committed version")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if st.IndexVersion() != version {
		t.Fatal("a refused write published a version")
	}
	oracle, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.InsertElement(oracle.Root(), 0, "logged"); err != nil {
		t.Fatal(err)
	}
	reopened, err := ltree.LoadLatest(inner)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotOf(t, reopened), snapshotOf(t, oracle)) {
		t.Fatal("reopened log does not hold exactly the acknowledged commits")
	}
}

// TestStoreFailedAppendFences: a commit whose append fails is neither
// visible nor durable, and fences the store.
func TestStoreFailedAppendFences(t *testing.T) {
	var flaky *flakyWAL
	st, inner := openFenceStore(t, func(w ltree.WALBackend) ltree.WALBackend {
		flaky = &flakyWAL{WALBackend: w}
		return flaky
	})
	flaky.failNext = true
	if _, err := st.InsertElement(st.Root(), 0, "lost"); !errors.Is(err, ltree.ErrFenced) || !errors.Is(err, errInjected) {
		t.Fatalf("commit with a failed append: err=%v, want ErrFenced wrapping the cause", err)
	}
	checkFenced(t, st, inner, "lost")
}

// TestStoreFailedCheckpointFences: a Checkpoint that fails after folding
// in direct Document() mutations publishes none of them, and fences the
// store.
func TestStoreFailedCheckpointFences(t *testing.T) {
	var flaky *failingCkptWAL
	st, inner := openFenceStore(t, func(w ltree.WALBackend) ltree.WALBackend {
		flaky = &failingCkptWAL{WALBackend: w}
		return flaky
	})
	if _, err := st.Document().InsertElement(st.Root(), 0, "direct"); err != nil {
		t.Fatal(err)
	}
	flaky.failNext = true
	if _, err := st.Checkpoint(); !errors.Is(err, ltree.ErrFenced) || !errors.Is(err, errInjected) {
		t.Fatalf("failed checkpoint: err=%v, want ErrFenced wrapping the cause", err)
	}
	checkFenced(t, st, inner, "direct")
}

// TestStoreWALCheckpointFoldsPendingOps covers the direct-mutation
// corner: ops recorded by Document()-level edits that were never
// committed must be absorbed by a Checkpoint (the snapshot covers them),
// not appended after it — that would replay them twice and fail
// recovery with ErrReplayDiverged.
func TestStoreWALCheckpointFoldsPendingOps(t *testing.T) {
	dir := t.TempDir()
	st, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := st.WithWAL(w); err != nil {
		t.Fatal(err)
	}
	// Direct document mutation, no commit: the op sits pending.
	if _, err := st.Document().InsertElement(st.Root(), 0, "direct"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A normal commit afterwards must not drag the pre-checkpoint op in.
	if _, err := st.InsertElement(st.Root(), 0, "after"); err != nil {
		t.Fatal(err)
	}
	recovered, err := ltree.LoadLatest(w)
	if err != nil {
		t.Fatalf("recovery after checkpoint-folded ops: %v", err)
	}
	if !bytes.Equal(snapshotOf(t, st), snapshotOf(t, recovered)) {
		t.Fatal("recovered snapshot differs from live store")
	}
	if len(recovered.Elements("direct")) != 1 || len(recovered.Elements("after")) != 1 {
		t.Fatal("recovered store missing elements")
	}
	if err := recovered.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreWALCheckpointMidStream interleaves checkpoints with batches:
// recovery must come out identical no matter where the snapshot/replay
// boundary falls.
func TestStoreWALCheckpointMidStream(t *testing.T) {
	oracle, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walStore, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := walStore.WithWAL(w); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		plan := planBatch(rng, len(oracle.Elements("*")))
		applyBatch(t, oracle, plan)
		applyBatch(t, walStore, plan)
		if i%7 == 3 {
			if _, err := walStore.Checkpoint(); err != nil {
				t.Fatalf("checkpoint at batch %d: %v", i, err)
			}
		}
	}
	recovered, err := ltree.LoadLatest(w)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if !bytes.Equal(snapshotOf(t, oracle), snapshotOf(t, recovered)) {
		t.Fatal("recovered snapshot differs from oracle across checkpoints")
	}
	if err := recovered.Check(); err != nil {
		t.Fatal(err)
	}
}
