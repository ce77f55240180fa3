package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/query"
	"github.com/ltree-db/ltree/internal/storage"
	"github.com/ltree-db/ltree/internal/workload"
	"github.com/ltree-db/ltree/internal/xmldom"
)

// tracedInfo is the bookkeeping of a traced run that is not a metric.
type tracedInfo struct {
	Ops          int      `json:"ops"` // main-phase ops plus the complement of the classes it lacks
	Inserts      int      `json:"inserts"`
	StagedWallMs float64  `json:"staged_wall_ms"`
	Failures     []string `json:"failures,omitempty"`
}

// traced is the outcome of one workload's traced run.
type traced struct {
	info     tracedInfo
	workload string
	seed     int64
	spans    []span
	m        metrics
	// Real-store View+Query medians in µs by class, for the ltreed.*
	// figures that subtract them from the HTTP latencies.
	viewQuery [numClasses]float64
}

func (t *traced) put(name string, v float64, unit string, n int) {
	t.m[name] = measurement{v, unit, n}
}

func (t *traced) failf(format string, args ...any) {
	t.info.Failures = append(t.info.Failures, fmt.Sprintf(format, args...))
}

func (t *traced) writeSpans(path string) error {
	return writeSpans(path, t.workload, t.seed, t.spans)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// staged is the engine taken apart: the same layers ltree.Store wires
// together, held separately so each call can be timed on its own.
type staged struct {
	doc  *document.Doc
	vers *index.Retained
	wal  *storage.WAL
	cs   index.CursorStats
	tr   *tracer
}

// current returns the published index version with the cursor
// accounting attached (Apply does not inherit the sink).
func (s *staged) current() *index.Index {
	ix := s.vers.Current().Ix
	ix.SetCursorStats(&s.cs)
	return ix
}

// drain evaluates a parsed path the way Store.Query does — a fresh
// predicate memo per single-shot read — and counts the matches.
func drain(ix *index.Index, p *query.Path) (first *xmldom.Node, n int) {
	cur := query.JoinCursorWith(ix, p, query.EvalOptions{Memo: query.NewPredMemo()})
	for e, ok := cur.Next(); ok; e, ok = cur.Next() {
		if n == 0 {
			first = e.Node
		}
		n++
	}
	return first, n
}

// read replays one query op: parse, then build and drain the cursor
// pipeline, as Store.evalPath does.
func (s *staged) read(o op) (int, error) {
	root := s.tr.begin("op." + o.Class.String())
	defer s.tr.end(root)
	sp := s.tr.begin("query.parse")
	p, err := query.Parse(o.queryExpr())
	s.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = s.tr.begin("query." + o.Class.String() + "_drain")
	_, n := drain(s.current(), p)
	s.tr.end(sp)
	return n, nil
}

// insert replays one write op in the order ltreed's leader and
// Store.commitLocked run it: resolve the parent, parse the fragment,
// splice and label it, take the change set, patch and publish the
// index, take the op log, stamp it with the root hash, encode, append,
// fsync.
func (s *staged) insert(o op) error {
	root := s.tr.begin("op.insert")
	defer s.tr.end(root)

	sp := s.tr.begin("query.resolve_parent")
	p, err := query.Parse(auctionExpr(o.Key))
	var parent *xmldom.Node
	n := 0
	if err == nil {
		parent, n = drain(s.current(), p)
	}
	s.tr.end(sp)
	if err != nil || n != 1 {
		return fmt.Errorf("parent %s matched %d elements (err %v)", auctionExpr(o.Key), n, err)
	}

	sp = s.tr.begin("xmldom.parse_fragment")
	frag, err := xmldom.ParseString(fragment)
	s.tr.end(sp)
	if err != nil {
		return err
	}

	sp = s.tr.begin("document.insert")
	err = s.doc.InsertSubtree(parent, 1, frag.Root)
	s.tr.end(sp)
	if err != nil {
		return err
	}

	sp = s.tr.begin("document.take")
	ch := s.doc.TakeChanges()
	s.tr.end(sp)

	sp = s.tr.begin("index.apply")
	next, err := s.vers.Current().Ix.Apply(s.doc, ch)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	sp = s.tr.begin("index.publish")
	s.vers.Publish(next)
	s.tr.end(sp)

	sp = s.tr.begin("document.take")
	ops := s.doc.TakeOps()
	s.tr.end(sp)

	sp = s.tr.begin("index.root_hash")
	stamp := storage.Op{Kind: storage.OpStamp, Root: [32]byte(next.RootHash())}
	s.tr.end(sp)

	sp = s.tr.begin("storage.encode_ops")
	payload, err := storage.EncodeOps(append(ops, stamp))
	s.tr.end(sp)
	if err != nil {
		return err
	}

	sp = s.tr.begin("storage.wal_write") // SyncEvery is huge: the append only writes
	_, err = s.wal.AppendBatch(payload)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	sp = s.tr.begin("storage.wal_fsync")
	err = s.wal.Sync()
	s.tr.end(sp)
	return err
}

// opStat is what the staged replay observed of one op from outside.
type opStat struct {
	wall    time.Duration
	traced  bool
	results int
	decoded uint64 // index chunks read from, by every cursor of the op
	skipped uint64 // index chunks discarded whole
}

// fenwick counts inserts per auction so the bare-tree replay can turn
// (auction, inserts so far in earlier auctions) into a leaf rank.
type fenwick []int

func (f fenwick) add(i int) {
	for i++; i < len(f); i += i & -i {
		f[i]++
	}
}

// before returns how many adds hit an index < i.
func (f fenwick) before(i int) int {
	n := 0
	for ; i > 0; i -= i & -i {
		n += f[i]
	}
	return n
}

// countedConn counts the bytes a follower reads off the wire:
// everything the leader ships it.
type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// attachFollower opens a replica over an in-process pipe.
func attachFollower(srv *storage.ShipServer, wire *atomic.Int64) (*ltree.Follower, *storage.RemoteTailSource, error) {
	dial := func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return countedConn{c1, wire}, nil
	}
	src, err := storage.OpenRemoteTail(dial, storage.RemoteOptions{})
	if err != nil {
		return nil, nil, err
	}
	f, err := ltree.OpenFollower(src)
	if err != nil {
		src.Close()
		return nil, nil, err
	}
	return f, src, nil
}

// tracedRun replays the workload's op stream in process, once through
// the staged layers (spans on half the ops, so the other half prices
// the tracing) and once through a real ltree.Store with a WAL
// and a follower, and derives the per-layer metrics.
func tracedRun(dir string, w workloadSpec, opt runOpts) (*traced, error) {
	t := &traced{workload: w.name, seed: opt.seed, m: metrics{}}
	c := corpusFor(opt.scale)
	ops := tracedOps(w, c, opt.seed, opt.tracedOps)
	t.info.Ops = len(ops)
	seedXML := workload.XMarkLite(opt.scale, opt.seed).String()

	// ---- set-up cost, layer by layer; the last repetition is replayed on
	var parseMs, loadMs, buildMs []float64
	var x *xmldom.Document
	st := &staged{tr: newTracer()}
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		var err error
		if x, err = xmldom.ParseString(seedXML); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if st.doc, err = document.Load(x, ltree.DefaultParams); err != nil {
			return nil, err
		}
		t2 := time.Now()
		ix := index.Build(st.doc)
		t3 := time.Now()
		st.vers = index.NewRetained(ix)
		parseMs, loadMs, buildMs = append(parseMs, ms(t1.Sub(t0))), append(loadMs, ms(t2.Sub(t1))), append(buildMs, ms(t3.Sub(t2)))
	}
	t.put("xmldom.parse_seed_ms", median(parseMs), "ms", len(parseMs))
	t.put("document.load_ms", median(loadMs), "ms", len(loadMs))
	t.put("index.build_ms", median(buildMs), "ms", len(buildMs))

	// Leaf rank of every auction's </initial>, the anchor inserts go after.
	anchor := make([]int, c.auctions)
	for i, tok := range x.Tokens() {
		if tok.Kind == xmldom.End && tok.Node.Tag() == "initial" {
			id, _ := tok.Node.Parent().Attr("id")
			k, err := strconv.Atoi(strings.TrimPrefix(id, "auction"))
			if err != nil || k < 0 || k >= c.auctions {
				return nil, fmt.Errorf("traced: unexpected auction id %q", id)
			}
			anchor[k] = i
		}
	}
	leaves0 := st.doc.Tree().Len()

	st.doc.TrackChanges()
	st.doc.TakeChanges()
	st.doc.TrackOps()
	var err error
	if st.wal, err = storage.OpenWAL(filepath.Join(dir, "staged-wal"), storage.WALOptions{SyncEvery: 1 << 30, SegmentBytes: 4 << 20}); err != nil {
		return nil, err
	}
	defer st.wal.Close()

	// ---- staged replay
	stat := make([]opStat, len(ops))
	ranks := make([]int, 0, len(ops)) // anchor leaf rank of every insert, in order
	counts := make(fenwick, c.auctions+1)
	var firstRead []float64
	rootedPath, err := query.Parse(rootedQuery)
	if err != nil {
		return nil, err
	}
	inserts := 0
	for _, o := range ops {
		if o.Class == clInsert {
			inserts++
		}
	}
	t.info.Inserts = inserts
	firstReadEvery := max(inserts/16, 1)
	core0 := st.doc.Stats()
	bytes0, _ := st.wal.LiveLog()
	stagedStart := time.Now()
	seen := 0
	for i, o := range ops {
		// Half the ops carry spans, picked by a hash of the op number: a
		// strict alternation would alias with anything periodic below,
		// such as the journal's commit rhythm under fsync.
		st.tr.op, st.tr.on = int32(i), uint32(i)*2654435761>>16&1 == 0
		dec0, skip0 := st.cs.Decoded.Load(), st.cs.Skipped()
		t0 := time.Now()
		var n int
		if o.Class == clInsert {
			err = st.insert(o)
		} else {
			n, err = st.read(o)
		}
		stat[i] = opStat{time.Since(t0), st.tr.on, n, st.cs.Decoded.Load() - dec0, st.cs.Skipped() - skip0}
		if err != nil {
			return nil, fmt.Errorf("staged op %d (%s): %w", i, o.Class, err)
		}
		if o.Class != clInsert {
			continue
		}
		ranks = append(ranks, anchor[o.Key]+fragmentTokens*counts.before(o.Key))
		counts.add(o.Key)
		if seen++; seen%firstReadEvery == 0 {
			// The first rooted read of a version rebuilds per-version
			// state; the second shows what it costs without that.
			t0 := time.Now()
			drain(st.current(), rootedPath)
			t1 := time.Now()
			drain(st.current(), rootedPath)
			firstRead = append(firstRead, us(t1.Sub(t0))-us(time.Since(t1)))
		}
	}
	t.info.StagedWallMs = ms(time.Since(stagedStart))
	t.spans = st.tr.spans
	bytes1, records := st.wal.LiveLog()
	if records != inserts {
		t.failf("staged WAL holds %d records for %d inserts", records, inserts)
	}
	coreD := st.doc.Stats()
	t.put("core.relabeled_per_insert", float64(coreD.RelabeledLeaves-core0.RelabeledLeaves)/float64(inserts), "count", inserts)
	t.put("core.splits_per_kinsert", 1000*float64(coreD.Splits-core0.Splits)/float64(inserts), "count", inserts)
	t.put("core.label_bits", float64(st.doc.Tree().BitsPerLabel()), "count", 0)
	t.put("storage.wal_bytes_per_commit", float64(bytes1-bytes0)/float64(inserts), "B", inserts)
	t.put("index.first_read_after_commit_us", median(firstRead), "us", len(firstRead))

	// Span-derived stage times.
	stages := stageTimes(t.spans)
	for metric, stage := range map[string]string{
		"xmldom.parse_fragment_us": "xmldom.parse_fragment", "document.insert_us": "document.insert",
		"document.take_us": "document.take", "index.apply_us": "index.apply", "index.root_hash_us": "index.root_hash",
		"query.parse_us": "query.parse", "query.point_drain_us": "query.point_drain", "query.scan_drain_us": "query.scan_drain",
		"query.rooted_drain_us": "query.rooted_drain", "query.resolve_parent_us": "query.resolve_parent",
		"storage.encode_ops_us": "storage.encode_ops", "storage.wal_write_us": "storage.wal_write", "storage.wal_fsync_us": "storage.wal_fsync",
	} {
		t.put(metric, median(stages[stage]), "us", len(stages[stage]))
	}
	// Coverage: the share of the traced ops' wall time that lies inside a
	// stage span, i.e. that is not the op root's own self time.
	self := selfTimes(t.spans)
	var rootDur, rootSelf int64
	for i, s := range t.spans {
		if s.Parent < 0 {
			rootDur += s.End - s.Start
			rootSelf += self[i]
		}
	}
	t.put("trace.span_coverage_frac", 1-float64(rootSelf)/float64(rootDur), "frac", 0)
	// Overhead: traced against untraced ops of the same class, by median.
	var wall [2][numClasses][]float64
	var decoded, skipped, entries, results float64
	points := 0
	for i, o := range ops {
		j := 0
		if stat[i].traced {
			j = 1
		}
		wall[j][o.Class] = append(wall[j][o.Class], us(stat[i].wall))
		if o.Class == clPoint {
			points++
			decoded += float64(stat[i].decoded)
			skipped += float64(stat[i].skipped)
		}
		if o.Class != clInsert {
			entries += float64(stat[i].decoded) * index.DefaultChunkSize
			results += float64(stat[i].results)
		}
	}
	var extra, base float64
	for cl := class(0); cl < numClasses; cl++ {
		if len(wall[0][cl]) > 0 && len(wall[1][cl]) > 0 {
			n := float64(len(wall[0][cl]) + len(wall[1][cl]))
			extra += n * (median(wall[1][cl]) - median(wall[0][cl]))
			base += n * median(wall[0][cl])
		}
	}
	t.put("trace.overhead_frac", extra/base, "frac", len(ops))
	t.put("index.chunks_decoded_per_query", decoded/float64(points), "count", points)
	t.put("index.chunks_skipped_per_query", skipped/float64(points), "count", points)
	t.put("query.entries_per_result", entries/results, "count", len(ops)-inserts)

	if err := t.bareCore(leaves0, ranks, coreD.Splits-core0.Splits, coreD.RelabeledLeaves-core0.RelabeledLeaves); err != nil {
		return nil, err
	}

	// What the stages of one commit add up to: every stage span of a
	// traced insert except the parent lookup, which runs before Update.
	commit := map[int32]float64{}
	for _, sp := range t.spans {
		if sp.Parent >= 0 && t.spans[sp.Parent].Name == "op.insert" && sp.Name != "query.resolve_parent" {
			commit[sp.Op] += float64(sp.End-sp.Start) / 1e3
		}
	}
	if err := t.realPass(dir, seedXML, ops, stat, commit); err != nil {
		return nil, err
	}
	return t, nil
}

// bareCore replays the inserts' leaf-rank stream on a core.Tree with
// nothing attached — no DOM, no hooks — to price label maintenance
// alone. It must split and relabel exactly as the document's tree did.
func (t *traced) bareCore(leaves int, ranks []int, splits, relabeled uint64) error {
	bare, err := core.New(ltree.DefaultParams)
	if err != nil {
		return err
	}
	if _, err := bare.Load(leaves); err != nil {
		return err
	}
	bare.ResetStats()
	perLeaf := make([]float64, 0, len(ranks))
	for _, rank := range ranks {
		at := bare.LeafAt(rank)
		t0 := time.Now()
		_, err := bare.InsertRunAfter(at, fragmentTokens)
		perLeaf = append(perLeaf, float64(time.Since(t0))/fragmentTokens)
		if err != nil {
			return fmt.Errorf("bare core insert at rank %d: %w", rank, err)
		}
	}
	t.put("core.insert_ns_per_leaf", median(perLeaf), "ns", len(perLeaf))
	if b := bare.Stats(); b.Splits != splits || b.RelabeledLeaves != relabeled {
		t.failf("bare core.Tree diverged from the document's tree: %d splits / %d relabels against %d / %d",
			b.Splits, b.RelabeledLeaves, splits, relabeled)
	}
	return nil
}

// realPass runs the same ops through ltree.Store.Update with a WAL that
// fsyncs every commit. The first half of the inserts runs alone and is
// what the staged replay must explain (stagedCommit: the summed stage
// times of each traced insert, by op number); then a follower attaches
// over an in-process pipe, catches up, and rides along for the second
// half. Afterwards the store is recovered from the log alone and
// checkpointed. Result counts must match the staged replay's.
func (t *traced) realPass(dir, seedXML string, ops []op, stat []opStat, stagedCommit map[int32]float64) error {
	walDir, walOpt := filepath.Join(dir, "real-wal"), storage.WALOptions{SegmentBytes: 4 << 20}
	w, err := storage.OpenWAL(walDir, walOpt)
	if err != nil {
		return err
	}
	defer func() { w.Close() }()
	st, err := ltree.OpenString(seedXML, ltree.DefaultParams)
	if err != nil {
		return err
	}
	if err := st.WithWAL(w); err != nil { // no auto-checkpoint: recovery replays every batch
		return err
	}
	srv, err := storage.NewShipServer(w)
	if err != nil {
		return err
	}
	defer srv.Close()
	var (
		f    *ltree.Follower
		src  *storage.RemoteTailSource
		wire atomic.Int64
	)
	defer func() {
		if f != nil {
			f.Close()
			src.Close()
		}
	}()

	alone := t.info.Inserts / 2 // inserts committed before the follower attaches
	var updateUs, stagedUs, lagUs []float64
	var viewUs [numClasses][]float64
	var wire0 int64
	for i, o := range ops {
		if o.Class != clInsert {
			n, t0 := 0, time.Now()
			err := st.View(func(tx *ltree.Txn) error {
				res, err := tx.Query(o.queryExpr())
				if err != nil {
					return err
				}
				for _, ok := res.Next(); ok; _, ok = res.Next() {
					n++
				}
				return nil
			})
			viewUs[o.Class] = append(viewUs[o.Class], us(time.Since(t0)))
			if err != nil {
				return err
			}
			if n != stat[i].results {
				t.failf("op %d %s: staged replay saw %d results, ltree.Store %d", i, o.queryExpr(), stat[i].results, n)
			}
			continue
		}
		if f == nil && len(updateUs) == alone {
			// A replica attached late: baseline checkpoint plus every
			// batch so far, bootstrap included.
			t0 := time.Now()
			if f, src, err = attachFollower(srv, &wire); err != nil {
				return err
			}
			if err := f.WaitFor(w.Seq(), 2*time.Minute); err != nil {
				return err
			}
			t.put("follower.catchup_batches_per_s", float64(alone)/time.Since(t0).Seconds(), "1/s", alone)
			wire0 = wire.Load()
		}
		parents, err := st.Query(auctionExpr(o.Key))
		if err != nil || len(parents) != 1 {
			return fmt.Errorf("real op %d: parent matched %d elements (err %v)", i, len(parents), err)
		}
		t0 := time.Now()
		err = st.Update(func(b *ltree.Batch) error {
			_, err := b.InsertXML(parents[0], 1, fragment)
			return err
		})
		t1 := time.Now()
		if err != nil {
			return err
		}
		if f == nil {
			updateUs = append(updateUs, us(t1.Sub(t0)))
			if v, traced := stagedCommit[int32(i)]; traced {
				stagedUs = append(stagedUs, v)
			}
			continue
		}
		if err := f.WaitFor(w.Seq(), time.Minute); err != nil {
			return err
		}
		lagUs = append(lagUs, us(time.Since(t1)))
	}
	t.put("store.update_us", median(updateUs), "us", len(updateUs))
	t.put("store.unattributed_frac", 1-median(stagedUs)/median(updateUs), "frac", len(stagedUs))
	t.put("store.view_query_us", median(viewUs[clPoint]), "us", len(viewUs[clPoint]))
	for cl := range viewUs {
		t.viewQuery[cl] = median(viewUs[cl])
	}
	t.put("follower.apply_lag_us", median(lagUs), "us", len(lagUs))
	t.put("storage.ship_bytes_per_commit", float64(wire.Load()-wire0)/float64(len(lagUs)), "B", len(lagUs))
	root, seq := st.RootHash(), w.Seq()
	if f.RootHash() != root {
		t.failf("follower root %x differs from the leader's %x at seq %d", f.RootHash(), root, seq)
	}

	// Crash recovery: the baseline checkpoint plus exactly these batches.
	f.Close()
	src.Close()
	f = nil
	srv.Close()
	if err := w.Close(); err != nil {
		return err
	}
	if w, err = storage.OpenWAL(walDir, walOpt); err != nil {
		return err
	}
	t0 := time.Now()
	st2, err := ltree.LoadLatest(w)
	t.put("storage.recovery_ms", ms(time.Since(t0)), "ms", int(seq))
	if err != nil {
		return err
	}
	if st2.RootHash() != root || w.Seq() != seq {
		t.failf("recovered store at seq %d root %x, expected seq %d root %x", w.Seq(), st2.RootHash(), seq, root)
	}
	t0 = time.Now()
	if _, err := st2.Checkpoint(); err != nil {
		return err
	}
	t.put("storage.checkpoint_ms", ms(time.Since(t0)), "ms", 0)
	_, snap, err := w.Latest()
	if err != nil {
		return err
	}
	t.put("storage.checkpoint_bytes", float64(len(snap)), "B", 0)
	return nil
}

// metrics joins the traced run's figures with the ltreed.* ones, which
// need the HTTP run: its latencies minus what the store itself takes.
func (t *traced) metrics(h *httpResult) metrics {
	out := metrics{}
	for k, v := range t.m {
		out[k] = v
	}
	if h == nil {
		return out
	}
	for k, v := range h.Ltreed {
		out[k] = v
	}
	point, scan := h.EndToEnd["query_point_p50_ms"], h.EndToEnd["query_scan_p50_ms"]
	overhead := point.Value*1e3 - t.viewQuery[clPoint]
	out["ltreed.http_overhead_us"] = measurement{overhead, "us", point.Samples}
	if n, _ := h.Checks["scan_results"].(int); n > 0 {
		render := scan.Value*1e3 - t.viewQuery[clScan] - overhead
		out["ltreed.render_us_per_kresult"] = measurement{render / (float64(n) / 1000), "us", scan.Samples}
	}
	return out
}
