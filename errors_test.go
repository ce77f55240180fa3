package ltree_test

import (
	"errors"
	"testing"
	"time"

	ltree "github.com/ltree-db/ltree"
)

// This file pins the consolidated error surface (errors.go): every
// sentinel is reachable through a real API path and matches with
// errors.Is even when wrapped with call-site detail, and no two
// sentinels alias each other.

func TestErrorsSurface(t *testing.T) {
	st, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("ErrBadParams", func(t *testing.T) {
		// f must be a multiple of s.
		if _, err := ltree.OpenString(replaySeedDoc, ltree.Params{F: 9, S: 2}); !errors.Is(err, ltree.ErrBadParams) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("ErrTxnClosed", func(t *testing.T) {
		tx := st.SnapshotView()
		if err := tx.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Query("//person"); !errors.Is(err, ltree.ErrTxnClosed) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("ErrVersionRetired", func(t *testing.T) {
		if _, err := st.SnapshotAt(st.IndexVersion() + 100); !errors.Is(err, ltree.ErrVersionRetired) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("ErrUnbound", func(t *testing.T) {
		victim := st.Elements("person")[0]
		if err := st.Update(func(b *ltree.Batch) error { return b.Delete(victim) }); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Label(victim); !errors.Is(err, ltree.ErrUnbound) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("ErrRootEdit", func(t *testing.T) {
		root := st.Elements("site")[0]
		err := st.Update(func(b *ltree.Batch) error { return b.Delete(root) })
		if !errors.Is(err, ltree.ErrRootEdit) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("ErrNoVersion", func(t *testing.T) {
		w, err := ltree.NewWALBackend(t.TempDir(), ltree.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := ltree.LoadLatest(w); !errors.Is(err, ltree.ErrNoVersion) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("ErrNoDoc", func(t *testing.T) {
		f, err := ltree.NewForest(ltree.ForestOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Delete("missing"); !errors.Is(err, ltree.ErrNoDoc) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("ErrWaitTimeout", func(t *testing.T) {
		_, w := openLeader(t, t.TempDir())
		f, err := ltree.OpenFollower(w)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.WaitFor(w.Seq()+100, 10*time.Millisecond); !errors.Is(err, ltree.ErrWaitTimeout) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("ErrFollowerClosed", func(t *testing.T) {
		_, w := openLeader(t, t.TempDir())
		f, err := ltree.OpenFollower(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.WaitFor(1, time.Millisecond); !errors.Is(err, ltree.ErrFollowerClosed) {
			t.Fatalf("got %v", err)
		}
	})
}

// TestErrorsDistinct guards the consolidation itself: moving sentinels
// into one file must not have aliased any two of them.
func TestErrorsDistinct(t *testing.T) {
	sentinels := map[string]error{
		"ErrBadParams":        ltree.ErrBadParams,
		"ErrNotLeaf":          ltree.ErrNotLeaf,
		"ErrLabelOverflow":    ltree.ErrLabelOverflow,
		"ErrUnbound":          ltree.ErrUnbound,
		"ErrRootEdit":         ltree.ErrRootEdit,
		"ErrTxnClosed":        ltree.ErrTxnClosed,
		"ErrVersionRetired":   ltree.ErrVersionRetired,
		"ErrNoVersion":        ltree.ErrNoVersion,
		"ErrShipRebased":      ltree.ErrShipRebased,
		"ErrFollowerClosed":   ltree.ErrFollowerClosed,
		"ErrWaitTimeout":      ltree.ErrWaitTimeout,
		"ErrReplicaDiverged":  ltree.ErrReplicaDiverged,
		"ErrForestTopology":   ltree.ErrForestTopology,
		"ErrNoDoc":            ltree.ErrNoDoc,
		"ErrDocBusy":          ltree.ErrDocBusy,
		"ErrBlobNotExist":     ltree.ErrBlobNotExist,
		"ErrBlobTransient":    ltree.ErrBlobTransient,
		"ErrCorruptChangeSet": ltree.ErrCorruptChangeSet,
	}
	for aName, a := range sentinels {
		if a == nil {
			t.Errorf("%s is nil", aName)
			continue
		}
		for bName, b := range sentinels {
			if aName != bName && errors.Is(a, b) {
				t.Errorf("%s aliases %s", aName, bName)
			}
		}
	}
}
