package ltree

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ltree-db/ltree/internal/workload"
)

// TestStoreConcurrentMixedWorkload floods the store with parallel readers
// while writers insert, delete and move subtrees. Run under -race this
// proves the read path never touches writer-owned state: queries consume
// only the published copy-on-write index version plus read-locked label
// state, and never rebuild anything.
func TestStoreConcurrentMixedWorkload(t *testing.T) {
	x := workload.XMarkLite(10, 1)
	st, err := OpenString(x.String(), DefaultParams)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers  = 8
		writers  = 2
		duration = 300 * time.Millisecond
	)
	var (
		stop    atomic.Bool
		queries atomic.Int64
		commits atomic.Int64
		wg      sync.WaitGroup
	)
	exprs := []string{"//item/name", "//site//name", "//*", "/site//item", "//keyword"}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				switch rng.Intn(4) {
				case 0:
					if _, err := st.Query(exprs[rng.Intn(len(exprs))]); err != nil {
						t.Error(err)
						return
					}
				case 1:
					els := st.Elements("item")
					if len(els) > 1 {
						a, b := els[rng.Intn(len(els))], els[rng.Intn(len(els))]
						// ErrUnbound: the lock-free Elements snapshot can
						// name a node a writer deleted before our RLock.
						if _, err := st.Compare(a, b); err != nil && err != ErrUnbound {
							t.Error(err)
							return
						}
					}
				case 2:
					els := st.Elements("*")
					if len(els) > 1 {
						if _, err := st.IsAncestor(els[0], els[rng.Intn(len(els))]); err != nil && err != ErrUnbound {
							t.Error(err)
							return
						}
					}
				default:
					els := st.Elements("name")
					if len(els) > 0 {
						if _, err := st.Label(els[rng.Intn(len(els))]); err != nil && err != ErrUnbound {
							t.Error(err)
							return
						}
					}
				}
				queries.Add(1)
			}
		}(int64(r))
	}

	// Regions are stable anchors: writers only ever insert, delete and
	// move items below them, so the region nodes themselves stay bound.
	regions := st.Elements("asia")
	regions = append(regions, st.Elements("europe")...)
	regions = append(regions, st.Elements("africa")...)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for !stop.Load() {
				// Elements is lock-free over the published index, so the
				// picked node can be deleted by the other writer before we
				// lock; the document layer reports ErrUnbound, which is fine.
				region := regions[rng.Intn(len(regions))]
				var err error
				switch op := rng.Intn(4); {
				case op == 0:
					_, err = st.InsertXML(region, 0, `<item><name>fresh</name></item>`)
				case op == 1:
					_, err = st.InsertXML(region, 0, `<bundle><keyword>k</keyword></bundle>`)
				default:
					els := st.Elements("item")
					if len(els) == 0 {
						continue
					}
					n := els[rng.Intn(len(els))]
					if op == 2 {
						err = st.Delete(n)
					} else {
						err = st.Move(n, region, 0)
					}
				}
				if err != nil && err != ErrUnbound && err != ErrRootEdit {
					// Racing picks can also surface cycles or stale slots.
					continue
				}
				commits.Add(1)
			}
		}(int64(w))
	}

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	if queries.Load() == 0 || commits.Load() == 0 {
		t.Fatalf("workload did not exercise both paths: %d queries, %d commits", queries.Load(), commits.Load())
	}
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d queries, %d commits, index version %d", queries.Load(), commits.Load(), st.IndexVersion())
}

// TestStoreReadersNotSerialized pins the structural claim behind the
// refactor: a reader inside Query cannot block another reader. Both
// readers park inside the read-locked section at the same time; with the
// seed's exclusive-lock query path this deadlocks (the second reader
// would wait for the first), so a timeout here is a regression.
func TestStoreReadersNotSerialized(t *testing.T) {
	st, err := OpenString(`<r><a/><b/></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	var inside sync.WaitGroup
	inside.Add(2)
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			// Two concurrent RLock holders: if Query took the write lock,
			// the second Add would never be reached before the first
			// releases, and with both gated on the barrier we deadlock.
			st.mu.RLock()
			inside.Done()
			inside.Wait()
			st.mu.RUnlock()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("readers serialized each other")
		}
	}
}

// TestStoreUpdateBatch: one Update publishes exactly one index version no
// matter how many mutations it contains, and queries observe the whole
// batch at once afterwards.
func TestStoreUpdateBatch(t *testing.T) {
	st, err := OpenString(`<r><a/></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	v0 := st.IndexVersion()
	err = st.Update(func(tx *Batch) error {
		a := st.Root().Child(0)
		for i := 0; i < 10; i++ {
			if _, err := tx.InsertElement(a, i, "x"); err != nil {
				return err
			}
		}
		if _, err := tx.InsertXML(a, 0, `<y><z/></y>`); err != nil {
			return err
		}
		return tx.Delete(a.Child(1)) // the first x, now behind the y
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.IndexVersion(); got != v0+1 {
		t.Fatalf("batch published %d versions, want 1", got-v0)
	}
	if got, _ := st.Query("//x"); len(got) != 9 {
		t.Fatalf("//x = %d, want 9", len(got))
	}
	if got, _ := st.Query("//y/z"); len(got) != 1 {
		t.Fatalf("//y/z = %d, want 1", len(got))
	}
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreIncrementalIndex: single-element writes bump the version by
// one and keep the index exact without a rebuild on the query path.
func TestStoreIncrementalIndex(t *testing.T) {
	x := workload.XMarkLite(5, 2)
	st, err := OpenString(x.String(), DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	items := st.Elements("item")
	before := len(items)
	v := st.IndexVersion()
	for i := 0; i < 50; i++ {
		if _, err := st.InsertElement(items[i%len(items)], 0, "name"); err != nil {
			t.Fatal(err)
		}
		if st.IndexVersion() != v+uint64(i)+1 {
			t.Fatalf("write %d did not publish exactly one version", i)
		}
		if err := st.Check(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := len(st.Elements("item")); got != before {
		t.Fatalf("item count drifted: %d, want %d", got, before)
	}
}

// TestStoreVersionedBackend: a WAL backend's checkpoints are retained
// versions — Checkpoint before a batch, LoadAt that version to roll back,
// LoadLatest for the newest state.
func TestStoreVersionedBackend(t *testing.T) {
	w, err := NewWALBackend(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st, err := OpenString(`<r><a/></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithWAL(w); err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertElement(st.Root(), 0, "earlier"); err != nil {
		t.Fatal(err)
	}
	v1, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertElement(st.Root(), 0, "later"); err != nil {
		t.Fatal(err)
	}

	latest, err := LoadLatest(w)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := latest.Query("//later"); len(got) != 1 {
		t.Fatal("latest state missing the second write")
	}
	old, err := LoadAt(w, v1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := old.Query("//earlier"); len(got) != 1 {
		t.Fatal("rollback version lost the checkpointed write")
	}
	if got, _ := old.Query("//later"); len(got) != 0 {
		t.Fatal("rollback version leaked the second write")
	}
	if err := old.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAt(w, v1+2); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("LoadAt past the durable end = %v, want ErrNoVersion", err)
	}
}

// TestStoreRefresh: direct Document mutations resync via Refresh.
func TestStoreRefresh(t *testing.T) {
	st, err := OpenString(`<r><a/></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Document().InsertElement(st.Root(), 0, "direct"); err != nil {
		t.Fatal(err)
	}
	st.Refresh()
	if got, _ := st.Query("//direct"); len(got) != 1 {
		t.Fatal("Refresh did not fold direct document edits into the index")
	}
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSnapshotFormatStability: snapshot bytes survive a restore
// cycle unchanged — the facade round trip is self-consistent.
func TestStoreSnapshotFormatStability(t *testing.T) {
	st, err := OpenString(`<r><a>t</a></r>`, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := st.Snapshot(&first); err != nil {
		t.Fatal(err)
	}
	st2, err := Restore(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := st2.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("snapshot bytes not stable across a restore cycle")
	}
}
