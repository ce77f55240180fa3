// Command ltreed serves an L-Tree store over HTTP — one process per
// node: a leader that owns the write-ahead log, a follower replicating
// from a remote leader over the shipped-op wire protocol, or a forest
// router partitioning whole documents across independent shard stores.
//
// Leader (owns the WAL, accepts writes, ships its op log):
//
//	ltreed -wal /var/lib/ltree -seed catalog.xml -ship :7878 -http :8080
//
// Follower (read replica; attaches to the leader's -ship port):
//
//	ltreed -leader leader-host:7878 -http :8081
//
// Forest (document-sharded; every shard has its own WAL under the dir):
//
//	ltreed -forest /var/lib/ltree-forest -shards 4 -http :8080
//
// A forest node adds whole-document routing (PUT/DELETE /v1/doc) on top
// of the shared read surface; queries fan out across the shards in
// parallel and merge. -shards only matters on first boot — an existing
// forest directory keeps the shard count it was created with, and a
// mismatch refuses to start rather than mis-route documents. Forest
// shards do not ship their logs (no -ship); replicate per shard with a
// store-per-shard topology if needed.
//
// The leader recovers from the WAL when it already holds a checkpoint;
// -seed is only read to boot an empty log. Followers bootstrap from the
// leader's newest checkpoint and then tail the op stream, reconnecting
// with backoff if the link drops. Every node serves the same snapshot-
// isolated read surface; see the HTTP endpoints in http.go. A follower
// read can demand read-your-writes freshness with ?wait_seq=<seq> using
// the sequence number a leader write returned.
//
// Blob tier (optional, leader and follower; see DESIGN.md §9):
//
//	ltreed -wal /var/lib/ltree -blob /mnt/objects -blob-release ...
//	ltreed -leader leader-host:7878 -blob /mnt/objects ...
//
// On a leader, -blob mirrors sealed WAL segments and checkpoints into
// the object-store directory asynchronously (commits never wait on it);
// -blob-release then frees local segment files the tier holds durably,
// bounding local disk while history stays replayable through the tier.
// A leader started with -blob on an EMPTY -wal directory restores from
// the blob tier (disaster recovery). On a follower, -blob seeds the
// replica from the object store — checkpoint plus segment tail — before
// attaching to the leader for the live stream, so bootstrap cost does
// not land on the leader. -blob-prefix namespaces one store shared by
// several nodes; leader and seeded followers must agree on it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/storage"
)

func main() {
	var (
		walDir    = flag.String("wal", "", "leader: WAL directory (created if missing)")
		seed      = flag.String("seed", "", "leader: XML file seeding an empty WAL")
		shipAddr  = flag.String("ship", ":7878", "leader: replication listen address")
		httpAddr  = flag.String("http", ":8080", "HTTP listen address")
		leader    = flag.String("leader", "", "follower: leader replication address (host:port)")
		forestDir = flag.String("forest", "", "forest: sharded forest directory (created if missing)")
		shards    = flag.Int("shards", 0, "forest: shard count on first boot (existing forests keep theirs)")
		wait      = flag.Duration("wait", 2*time.Second, "max wait_seq freshness wait")

		blobDir     = flag.String("blob", "", "blob tier: object-store directory (leader: async upload target; follower: bootstrap source)")
		blobPrefix  = flag.String("blob-prefix", "", "blob tier: object key prefix inside the store")
		blobRelease = flag.Bool("blob-release", false, "leader: free local segment files once the blob tier holds them durably")
	)
	flag.Parse()

	roles := 0
	for _, set := range []bool{*walDir != "", *leader != "", *forestDir != ""} {
		if set {
			roles++
		}
	}
	var err error
	switch {
	case roles > 1:
		err = errors.New("pick one role: -wal (leader), -leader (follower), or -forest (forest)")
	case *leader != "":
		err = runFollower(*leader, *httpAddr, *blobDir, *blobPrefix, *wait)
	case *walDir != "":
		err = runLeader(*walDir, *seed, *shipAddr, *httpAddr, *blobDir, *blobPrefix, *blobRelease, *wait)
	case *forestDir != "":
		err = runForest(*forestDir, *shards, *httpAddr, *wait)
	default:
		fmt.Fprintln(os.Stderr, "ltreed: need -wal <dir> (leader), -leader <addr> (follower), or -forest <dir> (forest)")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("ltreed: %v", err)
	}
}

// runLeader recovers (or seeds) the store, starts the replication
// listener, and serves HTTP until the process dies.
func runLeader(walDir, seed, shipAddr, httpAddr, blobDir, blobPrefix string, blobRelease bool, wait time.Duration) error {
	w, err := ltree.NewWALBackend(walDir, ltree.WALOptions{SegmentBytes: 4 << 20})
	if err != nil {
		return err
	}
	if blobDir != "" {
		// Attach the tier before recovery: an empty local WAL over a
		// non-empty blob store is restore-from-backup, and recovery reads
		// below go through the tier.
		bs, err := ltree.NewBlobDir(blobDir)
		if err != nil {
			return err
		}
		if _, err := ltree.AttachBlobTier(w, bs, ltree.BlobTierOptions{
			Prefix: blobPrefix, ReleaseLocal: blobRelease,
		}); err != nil {
			return fmt.Errorf("attach blob tier %s: %w", blobDir, err)
		}
	}
	// One policy for both branches: it is per-open configuration, so a
	// recovered leader must be handed it again or it never checkpoints.
	autoCkpt := ltree.AutoCheckpoint(4<<20, 16384)
	st, err := ltree.LoadLatest(w, autoCkpt)
	if errors.Is(err, ltree.ErrNoVersion) {
		// Empty log: this is first boot, seed it.
		if seed == "" {
			return fmt.Errorf("WAL %s is empty and no -seed was given", walDir)
		}
		f, err := os.Open(seed)
		if err != nil {
			return err
		}
		st, err = ltree.Open(f, ltree.DefaultParams)
		f.Close()
		if err != nil {
			return err
		}
		if err := st.WithWAL(w, autoCkpt); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}

	srv, err := storage.NewShipServer(w)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", shipAddr)
	if err != nil {
		return err
	}
	go srv.Serve(ln)

	src := w.(storage.TailSource)
	log.Printf("leader: http %s, shipping %s, wal %s (seq %d)", httpAddr, ln.Addr(), walDir, src.Seq())
	return http.ListenAndServe(httpAddr, newHandler(&leaderNode{Store: st, src: src}, wait))
}

// runForest opens (or creates) a document-sharded forest — every shard
// recovers from its own WAL in parallel — and serves HTTP.
func runForest(dir string, shards int, httpAddr string, wait time.Duration) error {
	f, err := ltree.OpenForest(dir, ltree.ForestOptions{Shards: shards})
	if err != nil {
		return err
	}
	s := f.Stats()
	log.Printf("forest: http %s, dir %s (%d shards, %d docs)", httpAddr, dir, s.Shards, s.Docs)
	return http.ListenAndServe(httpAddr, newHandler(&forestNode{Forest: f}, wait))
}

// runFollower attaches a replica to a remote leader and serves reads.
// With a blob store configured, the bootstrap (checkpoint + segment
// tail) comes from the object store and only the live tail from the
// leader.
func runFollower(leaderAddr, httpAddr, blobDir, blobPrefix string, wait time.Duration) error {
	dial := func() (net.Conn, error) { return net.Dial("tcp", leaderAddr) }
	src, err := storage.OpenRemoteTail(dial, storage.RemoteOptions{})
	if err != nil {
		return fmt.Errorf("attach to leader %s: %w", leaderAddr, err)
	}
	var f *ltree.Follower
	if blobDir != "" {
		bs, err := ltree.NewBlobDir(blobDir)
		if err != nil {
			src.Close()
			return err
		}
		f, err = ltree.OpenFollowerSeeded(src, bs, blobPrefix)
		if err != nil {
			src.Close()
			return fmt.Errorf("blob-seeded bootstrap from %s: %w", blobDir, err)
		}
		log.Printf("follower: seeded from blob store %s (prefix %q)", blobDir, blobPrefix)
	} else {
		f, err = ltree.OpenFollower(src)
		if err != nil {
			src.Close()
			return fmt.Errorf("bootstrap from leader %s: %w", leaderAddr, err)
		}
	}
	log.Printf("follower: http %s, leader %s (applied seq %d)", httpAddr, leaderAddr, f.Stats().AppliedSeq)
	return http.ListenAndServe(httpAddr, newHandler(&followerNode{Follower: f}, wait))
}
