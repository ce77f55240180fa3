package ltree_test

// Replication correctness: a log-shipping follower must equal the
// leader oracle at every acknowledged sequence number. The differential
// property test drives the same random batch generator as the WAL replay
// suite (store_replay_test.go) against a WAL-backed leader, attaches a
// follower at a random batch index, and asserts after every leader
// commit — once the follower acknowledges the batch — that the replica
// is bit-identical: v2 snapshot bytes, document-order element list, and
// query fingerprints. Background readers hammer the follower's Txn
// surface throughout so `go test -race` patrols the apply-loop seams.
// Companion tests pin restart mid-catch-up (crash = Close + reattach),
// leader checkpoints racing a lagging follower, and promote-to-writable.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/storage"
)

// waitTimeout bounds every follower acknowledgment in tests.
const waitTimeout = 30 * time.Second

// readSurface is the store/follower read API the fingerprint helpers
// need — both *ltree.Store and *ltree.Follower satisfy it.
type readSurface interface {
	Query(expr string) ([]*ltree.Elem, error)
	Label(n *ltree.Elem) (ltree.Label, error)
	Elements(tag string) []*ltree.Elem
	Snapshot(w *bytes.Buffer) error
}

// storeSurface adapts *ltree.Store's io.Writer-based Snapshot.
type storeSurface struct{ *ltree.Store }

func (s storeSurface) Snapshot(w *bytes.Buffer) error { return s.Store.Snapshot(w) }

// followerSurface adapts *ltree.Follower the same way.
type followerSurface struct{ *ltree.Follower }

func (f followerSurface) Snapshot(w *bytes.Buffer) error { return f.Follower.Snapshot(w) }

// fingerprintOf renders snapshot bytes + element order + query results
// into one comparable string.
func fingerprintOf(t *testing.T, r readSurface) string {
	t.Helper()
	var b bytes.Buffer
	var snap bytes.Buffer
	if err := r.Snapshot(&snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	fmt.Fprintf(&b, "snap:%x;", snap.Bytes())
	for _, e := range r.Elements("*") {
		lab, err := r.Label(e)
		if err != nil {
			t.Fatalf("element order: %v", err)
		}
		fmt.Fprintf(&b, "<%s>(%d,%d);", e.Tag(), lab.Begin, lab.End)
	}
	for _, q := range replayQueries {
		res, err := r.Query(q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		fmt.Fprintf(&b, "|%s:", q)
		for _, e := range res {
			lab, err := r.Label(e)
			if err != nil {
				t.Fatalf("query %q result unbound: %v", q, err)
			}
			fmt.Fprintf(&b, "<%s>(%d,%d);", e.Tag(), lab.Begin, lab.End)
		}
	}
	return b.String()
}

// openLeader builds a WAL-backed leader store in dir.
func openLeader(t *testing.T, dir string) (*ltree.Store, *storage.WAL) {
	t.Helper()
	st, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithWAL(w); err != nil {
		t.Fatal(err)
	}
	return st, w
}

// attachLocal hands the follower the leader's in-process WAL handle —
// the PR-5 shape.
func attachLocal(t *testing.T, w *storage.WAL) ltree.WALBackend {
	t.Helper()
	return w
}

// attachSocket serves the leader's WAL through a ShipServer and hands
// the follower a RemoteTailSource dialing it over net.Pipe — the whole
// replication stream crosses a real byte transport, yet the test body
// is identical to the in-process run.
func attachSocket(t *testing.T, w *storage.WAL) ltree.WALBackend {
	t.Helper()
	srv, err := storage.NewShipServer(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	dial := func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	}
	src, err := storage.OpenRemoteTail(dial, storage.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

func TestFollowerDifferentialProperty(t *testing.T) {
	t.Run("local", func(t *testing.T) { runFollowerDifferential(t, attachLocal) })
	t.Run("socket", func(t *testing.T) { runFollowerDifferential(t, attachSocket) })
}

// runFollowerDifferential is the PR-5 differential property test body,
// parameterized only by how the follower reaches the leader's log.
func runFollowerDifferential(t *testing.T, attach func(t *testing.T, w *storage.WAL) ltree.WALBackend) {
	seeds := []int64{11, 37, 73}
	batchesPerSeed := 25
	if testing.Short() {
		seeds = seeds[:1]
		batchesPerSeed = 10
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			leader, w := openLeader(t, t.TempDir())
			defer w.Close()

			rng := rand.New(rand.NewSource(seed))
			attachAt := rng.Intn(batchesPerSeed - 1) // attach mid-stream
			var f *ltree.Follower
			var stop atomic.Bool
			var wg sync.WaitGroup

			for i := 0; i < batchesPerSeed; i++ {
				if i == attachAt {
					var err error
					f, err = ltree.OpenFollower(attach(t, w))
					if err != nil {
						t.Fatalf("attach at batch %d: %v", i, err)
					}
					// Background readers on the follower's snapshot-
					// isolated surface while batches keep applying.
					for r := 0; r < 2; r++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for !stop.Load() {
								err := f.View(func(tx *ltree.Txn) error {
									res, err := tx.Query("//item/name")
									if err != nil {
										return err
									}
									res.Collect()
									tx.Elements("person")
									return nil
								})
								if err != nil {
									return
								}
							}
						}()
					}
				}

				applyBatch(t, leader, planBatch(rng, len(leader.Elements("*"))))
				if i%7 == 5 {
					// Leader checkpoints mid-stream: the retention lease
					// must keep the attached (possibly lagging) follower
					// streaming across the truncation.
					if _, err := leader.Checkpoint(); err != nil {
						t.Fatalf("leader checkpoint at batch %d: %v", i, err)
					}
				}
				if f == nil {
					continue
				}
				seq := w.Seq()
				if err := f.WaitFor(seq, waitTimeout); err != nil {
					t.Fatalf("batch %d (seq %d) not acknowledged: %v", i, seq, err)
				}
				// The acked follower is the leader oracle, bit for bit.
				if got, want := fingerprintOf(t, followerSurface{f}), fingerprintOf(t, storeSurface{leader}); got != want {
					t.Fatalf("follower diverged from leader at seq %d:\n got %.200s…\nwant %.200s…", seq, got, want)
				}
			}
			stop.Store(true)
			wg.Wait()

			st := f.Stats()
			if st.Err != nil {
				t.Fatalf("follower reported terminal error: %v", st.Err)
			}
			if !st.Running {
				t.Fatal("healthy attached follower reports Running=false")
			}
			if st.Lag != 0 {
				t.Fatalf("follower lag %d after full acknowledgment", st.Lag)
			}
			if st.Batches == 0 {
				t.Fatal("follower applied no batches despite mid-stream attach")
			}
			if err := f.Check(); err != nil {
				t.Fatalf("follower failed invariants: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if st := f.Stats(); st.Running || st.Err != nil {
				t.Fatalf("after clean Close: Running=%v Err=%v, want false/nil", st.Running, st.Err)
			}
		})
	}
}

// TestFollowerRestartMidCatchUp simulates a follower crash: Close tears
// the replica down at whatever point catch-up reached (the retention
// lease dies with it), more batches land, and a fresh follower attaches
// — re-seeding from the newest checkpoint exactly like WAL recovery —
// and must converge on the leader again.
func TestFollowerRestartMidCatchUp(t *testing.T) {
	leader, w := openLeader(t, t.TempDir())
	defer w.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		applyBatch(t, leader, planBatch(rng, len(leader.Elements("*"))))
	}

	f1, err := ltree.OpenFollower(w)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-catch-up: Close without waiting for acknowledgment.
	if err := f1.Close(); err != nil {
		t.Fatalf("crash close: %v", err)
	}

	// Leader keeps going, including a checkpoint that truncates the log
	// the crashed follower was reading.
	for i := 0; i < 6; i++ {
		applyBatch(t, leader, planBatch(rng, len(leader.Elements("*"))))
		if i == 2 {
			if _, err := leader.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	f2, err := ltree.OpenFollower(w)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	defer f2.Close()
	if err := f2.WaitFor(w.Seq(), waitTimeout); err != nil {
		t.Fatalf("restarted follower did not catch up: %v", err)
	}
	if got, want := fingerprintOf(t, followerSurface{f2}), fingerprintOf(t, storeSurface{leader}); got != want {
		t.Fatal("restarted follower diverged from leader")
	}
	if err := f2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerSurvivesAutoCheckpoint runs a leader with an aggressive
// auto-checkpoint policy (every other record trips it) under an attached
// follower: truncation happens constantly mid-stream and the follower
// must never see a gap.
func TestFollowerSurvivesAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	leader, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := leader.WithWAL(w, ltree.AutoCheckpoint(0, 2)); err != nil {
		t.Fatal(err)
	}
	f, err := ltree.OpenFollower(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		applyBatch(t, leader, planBatch(rng, len(leader.Elements("*"))))
	}
	if err := f.WaitFor(w.Seq(), waitTimeout); err != nil {
		t.Fatalf("follower under auto-checkpoint churn: %v", err)
	}
	if got, want := fingerprintOf(t, followerSurface{f}), fingerprintOf(t, storeSurface{leader}); got != want {
		t.Fatal("follower diverged under auto-checkpoint churn")
	}
}

func TestFollowerPromote(t *testing.T) {
	leader, w := openLeader(t, t.TempDir())
	defer w.Close()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		applyBatch(t, leader, planBatch(rng, len(leader.Elements("*"))))
	}
	f, err := ltree.OpenFollower(w)
	if err != nil {
		t.Fatal(err)
	}

	// Leader handoff: the old leader has stopped committing; promote
	// drains to the durable end and hands back a writable store.
	promoted, err := f.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if got, want := fingerprintOf(t, storeSurface{promoted}), fingerprintOf(t, storeSurface{leader}); got != want {
		t.Fatal("promoted store differs from the old leader's durable state")
	}

	// The promoted store takes writes…
	if _, err := promoted.InsertElement(promoted.Root(), 0, "after-promote"); err != nil {
		t.Fatalf("write on promoted store: %v", err)
	}
	if len(promoted.Elements("after-promote")) != 1 {
		t.Fatal("promoted store lost the post-promote write")
	}
	if err := promoted.Check(); err != nil {
		t.Fatalf("promoted store failed invariants: %v", err)
	}
	// …and can become durable again on a fresh WAL.
	w2, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := promoted.WithWAL(w2); err != nil {
		t.Fatalf("fresh WAL on promoted store: %v", err)
	}
	if _, err := promoted.InsertElement(promoted.Root(), 0, "durable-again"); err != nil {
		t.Fatal(err)
	}
	recovered, err := ltree.LoadLatest(w2)
	if err != nil {
		t.Fatalf("recovery of the new leader: %v", err)
	}
	if got, want := fingerprintOf(t, storeSurface{recovered}), fingerprintOf(t, storeSurface{promoted}); got != want {
		t.Fatal("new leader's recovery diverged")
	}

	// The follower handle is spent: no second promote, no waiting, but
	// reads still serve the final state.
	if _, err := f.Promote(); err == nil {
		t.Fatal("second promote succeeded")
	}
	if err := f.WaitFor(^uint64(0), time.Second); err == nil {
		t.Fatal("WaitFor after promote succeeded")
	}
	if len(f.Elements("*")) == 0 {
		t.Fatal("reads through the promoted-away follower stopped working")
	}
}

// TestFollowerAfterLeaderFence: a leader whose append fails fences
// itself and logs nothing more, so an attached follower is left exactly
// at the last durable batch — still running, no error — and holds what
// reopening the leader's log recovers.
func TestFollowerAfterLeaderFence(t *testing.T) {
	leader, err := ltree.OpenString(replaySeedDoc, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	flaky := &flakyWAL{WALBackend: inner}
	if err := leader.WithWAL(flaky); err != nil {
		t.Fatal(err)
	}
	f, err := ltree.OpenFollower(inner)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, err := leader.InsertElement(leader.Root(), 0, "logged"); err != nil {
		t.Fatal(err)
	}
	flaky.failNext = true
	if _, err := leader.InsertElement(leader.Root(), 0, "lost"); !errors.Is(err, ltree.ErrFenced) {
		t.Fatalf("failed append: err=%v, want ErrFenced", err)
	}
	if _, err := leader.InsertElement(leader.Root(), 0, "after"); !errors.Is(err, ltree.ErrFenced) {
		t.Fatalf("write on a fenced leader: err=%v, want ErrFenced", err)
	}

	if err := f.WaitFor(inner.Seq(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Err != nil || !st.Running || st.AppliedSeq != inner.Seq() {
		t.Fatalf("Stats() = %+v, want running at seq %d with no error", st, inner.Seq())
	}
	for tag, want := range map[string]int{"logged": 1, "lost": 0, "after": 0} {
		if got := len(f.Elements(tag)); got != want {
			t.Fatalf("follower holds %d <%s>, want %d", got, tag, want)
		}
	}
	reopened, err := ltree.LoadLatest(inner)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprintOf(t, followerSurface{f}), fingerprintOf(t, storeSurface{reopened}); got != want {
		t.Fatal("follower diverged from the reopened leader")
	}
}

// TestWaitForTimeoutTyped pins the ErrWaitTimeout sentinel: a WaitFor
// that expires must be matchable with errors.Is (ltreed's
// read-your-writes handler turns it into 504) while keeping the
// seq/applied detail in the message. Pre-fix the timeout was an
// untyped fmt.Errorf.
func TestWaitForTimeoutTyped(t *testing.T) {
	leader, w := openLeader(t, t.TempDir())
	defer w.Close()
	if _, err := leader.InsertElement(leader.Root(), 0, "x"); err != nil {
		t.Fatal(err)
	}
	f, err := ltree.OpenFollower(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	err = f.WaitFor(w.Seq()+100, 50*time.Millisecond)
	if !errors.Is(err, ltree.ErrWaitTimeout) {
		t.Fatalf("expired WaitFor: err=%v, want ErrWaitTimeout", err)
	}
	if err == nil || !strings.Contains(err.Error(), "did not reach seq") {
		t.Fatalf("timeout error lost its detail message: %v", err)
	}
}

// TestOpenFollowerRejects pins the attach preconditions: a WAL with no
// checkpoint (never attached to a leader) and a backend without tail
// capabilities both refuse loudly.
func TestOpenFollowerRejects(t *testing.T) {
	w, err := storage.OpenWAL(t.TempDir(), storage.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := ltree.OpenFollower(w); err == nil {
		t.Fatal("OpenFollower on a checkpoint-less WAL succeeded")
	}
	if _, err := ltree.OpenFollower(&flakyWAL{WALBackend: w}); err == nil {
		t.Fatal("OpenFollower on a non-tailable backend succeeded")
	}
}
