package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/stats"
	"github.com/ltree-db/ltree/internal/workload"
)

// expBlob measures what the blob storage tier (DESIGN.md §9) costs and
// buys, end to end, with the object store misbehaving the whole time —
// the fault-injecting wrapper drops, tears, and delays a slice of every
// operation, so every number below was earned through retries:
//
//	latency   identical commit streams into a local-only WAL and a
//	          blob-tiered WAL (async uploads + ReleaseLocal). The tier
//	          must stay off the commit path: tiered latency within 10%
//	          of local-only.
//	seed      a follower bootstraps from the blob store alone
//	          (checkpoint + segment tail), then tracks the leader's
//	          live tail; snapshot differential decides equality.
//	history   after checkpoints prune local history and ReleaseLocal
//	          frees sealed segments from local disk, every snapshot
//	          captured live must be reconstructed bit-identically by
//	          LoadAt — the bytes can only have come back through the
//	          blob tier.
func expBlob(c config) {
	scale, commits, rounds := 80, 200, 5
	if c.quick {
		scale, commits, rounds = 15, 60, 4
	}
	if c.n > 0 {
		scale = c.n
	}
	x := workload.XMarkLite(scale, 11)
	src := x.String()
	perRound := commits / rounds
	fmt.Printf("xmark-lite scale %d: %d tokens, %d bytes serialized; %d commits in %d checkpoint rounds\n\n",
		scale, x.CountTokens(), len(src), perRound*rounds, rounds)

	dir, err := os.MkdirTemp("", "ltreebench-blob-*")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer os.RemoveAll(dir)

	// Two leaders over the same document: one plain WAL, one with the
	// tier attached over a deterministically faulty in-memory store.
	// Same small segment size so both pay the same rotation cadence.
	open := func(sub string) (*ltree.Store, ltree.WALBackend, error) {
		w, err := ltree.NewWALBackend(dir+"/"+sub, ltree.WALOptions{SegmentBytes: 4 << 10})
		if err != nil {
			return nil, nil, err
		}
		st, err := ltree.OpenString(src, ltree.DefaultParams)
		if err != nil {
			return nil, nil, err
		}
		if err := st.WithWAL(w); err != nil {
			return nil, nil, err
		}
		return st, w, nil
	}
	local, _, err := open("local")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tiered, tw, err := open("tiered")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	faulty := ltree.NewBlobFaults(ltree.NewBlobMemory(), ltree.BlobFaultOptions{
		Seed: 42, ErrorRate: 0.15, PartialPuts: 0.15, TornReads: 0.15,
		Latency: 200 * time.Microsecond,
	})
	tier, err := ltree.AttachBlobTier(tw, faulty, ltree.BlobTierOptions{
		Prefix: "bench", ReleaseLocal: true,
		RetryBase: 200 * time.Microsecond, RetryCap: 5 * time.Millisecond,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	commitInto := func(st *ltree.Store, rng *rand.Rand) error {
		parent := st.Elements("asia")[0]
		return st.Update(func(tx *ltree.Batch) error {
			_, err := tx.InsertXML(parent, rng.Intn(parent.NumChildren()+1),
				`<item><name>fresh</name></item>`)
			return err
		})
	}

	// ---- latency phase: identical streams, per-commit wall time ----
	// Same rng seed on both sides keeps the op streams identical; a short
	// untimed warmup absorbs first-touch costs on both paths.
	rngL, rngT := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if err := commitInto(local, rngL); err != nil {
			fmt.Println("error:", err)
			return
		}
		if err := commitInto(tiered, rngT); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	latLocal := make([]time.Duration, 0, commits)
	latTier := make([]time.Duration, 0, commits)
	want := map[uint64][]byte{} // tiered seq -> live snapshot bytes
	var seqs []uint64
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			t0 := time.Now()
			if err := commitInto(local, rngL); err != nil {
				fmt.Println("error:", err)
				return
			}
			latLocal = append(latLocal, time.Since(t0))
			t1 := time.Now()
			if err := commitInto(tiered, rngT); err != nil {
				fmt.Println("error:", err)
				return
			}
			latTier = append(latTier, time.Since(t1))
		}
		// End of round: pin the live image at this seq for the history
		// phase, then checkpoint so the tier can release local segments.
		ws, ok := tiered.WALStats()
		if !ok {
			fmt.Println("error: tiered store reports no WAL stats")
			return
		}
		var snap bytes.Buffer
		if err := tiered.Snapshot(&snap); err != nil {
			fmt.Println("error:", err)
			return
		}
		want[ws.Seq] = snap.Bytes()
		seqs = append(seqs, ws.Seq)
		if _, err := tiered.Checkpoint(); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	overhead := 100 * (float64(mean(latTier))/float64(mean(latLocal)) - 1)
	tbl := stats.NewTable(os.Stdout, "commit path", "mean µs", "p95 µs")
	tbl.Row("local-only WAL", us(mean(latLocal)), us(p95(latLocal)))
	tbl.Row("WAL + async blob tier (faulty store)", us(mean(latTier)), us(p95(latTier)))
	tbl.Flush()
	fmt.Printf("(tier overhead on the commit path: %+.1f%% — uploads run behind a kick channel,\n"+
		" never under the commit lock)\n\n", overhead)
	recordMetric("commit_mean_local_us", us(mean(latLocal)), "us")
	recordMetric("commit_mean_blob_us", us(mean(latTier)), "us")
	recordMetric("commit_overhead_pct", overhead, "%")

	// ---- seed phase: follower bootstraps from the blob store alone ----
	if err := tier.Barrier(120 * time.Second); err != nil {
		fmt.Println("error:", err)
		return
	}
	ws, _ := tiered.WALStats()
	t0 := time.Now()
	f, err := ltree.OpenFollowerSeeded(tw, faulty, "bench")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer f.Close()
	if err := f.WaitFor(ws.Seq, 60*time.Second); err != nil {
		fmt.Println("error:", err)
		return
	}
	seedTime := time.Since(t0)
	var leaderSnap, followerSnap bytes.Buffer
	if err := tiered.Snapshot(&leaderSnap); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := f.Snapshot(&followerSnap); err != nil {
		fmt.Println("error:", err)
		return
	}
	seedIdentical := bytes.Equal(leaderSnap.Bytes(), followerSnap.Bytes()) && f.Check() == nil
	// The live tail keeps flowing after the seeded bootstrap.
	for i := 0; i < 5; i++ {
		if err := commitInto(tiered, rngT); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	ws, _ = tiered.WALStats()
	liveOK := f.WaitFor(ws.Seq, 60*time.Second) == nil
	fmt.Printf("blob-seeded follower: bootstrap+catch-up in %v at seq %d (leader shipped only the live tail)\n\n",
		seedTime.Round(time.Microsecond), f.Stats().AppliedSeq)
	recordMetric("seed_catchup_us", us(seedTime), "us")

	// ---- history phase: reconstruct released history through the tier ----
	if _, err := tiered.Checkpoint(); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := tier.Barrier(120 * time.Second); err != nil {
		fmt.Println("error:", err)
		return
	}
	ws, _ = tiered.WALStats()
	if err := tw.Prune(ws.CheckpointSeq); err != nil {
		fmt.Println("error:", err)
		return
	}
	reconstructed := 0
	for _, seq := range seqs {
		at, err := ltree.LoadAt(tw, seq)
		if err != nil {
			fmt.Printf("LoadAt(%d): %v\n", seq, err)
			continue
		}
		var snap bytes.Buffer
		if err := at.Snapshot(&snap); err != nil {
			fmt.Printf("LoadAt(%d) snapshot: %v\n", seq, err)
			continue
		}
		if bytes.Equal(snap.Bytes(), want[seq]) {
			reconstructed++
		}
	}
	// Read the tier counters only now: the LoadAt loop above is what
	// drives the fetch-back traffic this table is about.
	ws, _ = tiered.WALStats()
	ts := ws.Tier
	fmt.Printf("history: %d/%d pruned-and-released snapshots reconstructed bit-identically via LoadAt\n",
		reconstructed, len(seqs))
	fmt.Printf("tier: durable seq %d (lag %d), %d segments + %d checkpoints uploaded (%d B),\n"+
		"      %d upload retries, %d local segment files released, %d fetches (%d B) served back\n\n",
		ts.DurableSeq, ts.UploadLag, ts.UploadedSegments, ts.UploadedCheckpoints, ts.BytesUploaded,
		ts.UploadRetries, ts.LocalReleased, ts.Fetches, ts.FetchBytes)
	recordMetric("blob_durable_seq", float64(ts.DurableSeq), "seq")
	recordMetric("blob_uploaded_bytes", float64(ts.BytesUploaded), "B")
	recordMetric("blob_upload_retries", float64(ts.UploadRetries), "retries")
	recordMetric("blob_local_released", float64(ts.LocalReleased), "segments")
	recordMetric("blob_fetches", float64(ts.Fetches), "fetches")

	// ---- verdicts ----
	verdict(float64(mean(latTier)) <= 1.10*float64(mean(latLocal)),
		fmt.Sprintf("async blob upload stays off the commit path: tiered latency within 10%% of local-only (%+.1f%%)", overhead))
	verdict(seedIdentical && liveOK,
		"blob-seeded follower reaches the leader seq bit-identically and keeps tracking the live tail")
	verdict(ts.LocalReleased > 0 && reconstructed == len(seqs),
		fmt.Sprintf("all %d historical snapshots reconstruct bit-identically via blob fetch after local release", len(seqs)))
	verdict(ts.UploadRetries > 0 && ts.UploadLag == 0,
		fmt.Sprintf("tier converged through injected faults (%d upload retries, lag 0)", ts.UploadRetries))
}

// mean returns the arithmetic mean of a duration sample.
func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

// p95 returns the 95th-percentile of a duration sample.
func p95(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*95/100]
}

// us renders a duration as float microseconds for table cells.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
