package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
)

// class is one kind of request a client can issue. Every end-to-end
// latency metric is the median of one class.
type class uint8

const (
	clPoint  class = iota // selective attribute-predicate query, ≤ a handful of results
	clScan                // //open_auction//increase, ~6 results per scale unit
	clRooted              // /site/regions/asia/item/name, child axes from the root
	clInsert              // POST /v1/insert of the fixed <bidder> fragment
	clRYW                 // insert on the leader → wait_seq read returning the new element
	numClasses
)

var classNames = [numClasses]string{"point", "scan", "rooted", "insert", "ryw"}

func (c class) String() string { return classNames[c] }

// fragment is the one subtree every write inserts: four elements, ten
// tokens. The bench attribute is the marker the post-run oracle counts.
const fragment = `<bidder bench="1"><date>2004-03-14</date><personref person="person7"/><increase>4.50</increase></bidder>`

const (
	fragmentTokens = 10
	scanQuery      = "//open_auction//increase"
	rootedQuery    = "/site/regions/asia/item/name"
	markerQuery    = "//bidder[@bench='1']"
)

// op is one generated request. Key is the item index for an item point
// query and the auction index for inserts, auction point queries and
// read-your-writes cycles; it is unused for scan and rooted.
type op struct {
	Class   class
	Key     int
	Auction bool // point query over an auction's bidders instead of an item's name
}

func itemQuery(k int) string    { return fmt.Sprintf("//item[@id='item%d']/name", k) }
func auctionExpr(k int) string  { return fmt.Sprintf("//open_auction[@id='auction%d']", k) }
func auctionQuery(k int) string { return auctionExpr(k) + "/bidder" }

// queryExpr is the path expression of a read op.
func (o op) queryExpr() string {
	switch {
	case o.Class == clScan:
		return scanQuery
	case o.Class == clRooted:
		return rootedQuery
	case o.Auction:
		return auctionQuery(o.Key)
	default:
		return itemQuery(o.Key)
	}
}

// target is the request line ltreed receives for the op. waitSeq > 0
// adds the read-your-writes freshness gate.
func (o op) target(waitSeq uint64) string {
	if o.Class == clInsert {
		return "/v1/insert?idx=1&parent=" + url.QueryEscape(auctionExpr(o.Key))
	}
	t := "/v1/query?q=" + url.QueryEscape(o.queryExpr())
	if waitSeq > 0 {
		t += fmt.Sprintf("&wait_seq=%d", waitSeq)
	}
	return t
}

// maxClients caps the closed loop's client count: C = min(nproc, 2).
const maxClients = 2

// corpus is what the generators need to know about an XMarkLite
// document of a given scale (see internal/workload).
type corpus struct {
	scale    int
	items    int // item0 … item(items-1)
	auctions int // auction0 … auction(auctions-1)
}

func corpusFor(scale int) corpus {
	return corpus{scale: scale, items: 12 * scale, auctions: 3 * scale}
}

// workloadSpec names one traffic mix. mix holds the per-class weights
// of the main phase; the classes it leaves at zero are measured by
// single-client probe phases after the window, so every end-to-end
// metric exists on every workload.
type workloadSpec struct {
	name     string
	why      string
	mix      [numClasses]int
	hotspot  bool // every insert of the main phase lands in one auction
	follower bool // leader + follower; main phase is one writer beside one RYW reader
	// tracedDiv divides the traced run's op count: a replica cycle pays a
	// full first read of a fresh version (~35 ms at scale 2000), a
	// hundred times any other op, so it replays a quarter as many.
	tracedDiv int
}

var workloads = []workloadSpec{
	{
		name: "read_only",
		why:  "80/10/10 point/scan/rooted reads on a warm leader: query, index cursors and JSON render do all the work, core and storage none",
		mix:  [numClasses]int{clPoint: 80, clScan: 10, clRooted: 10},
	},
	{
		name: "write_uniform",
		why:  "inserts under uniformly chosen auctions, the paper's uniform regime: relabeling at its floor, WAL fsync and index patch dominate",
		mix:  [numClasses]int{clInsert: 1},
	},
	{
		name:    "write_hotspot",
		why:     "the same inserts all at idx 1 of one auction, the paper's heavy-insertion area: core splits, one index chunk splitting, a huge child list",
		mix:     [numClasses]int{clInsert: 1},
		hotspot: true,
	},
	{
		name:      "mixed_replica",
		why:       "one writer on the leader beside one read-your-writes reader on a follower: every read hits a version nobody has read, ship and apply block it",
		mix:       [numClasses]int{clInsert: 1, clRooted: 1, clPoint: 1, clRYW: 1},
		follower:  true,
		tracedDiv: 4,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// inMain reports whether the main phase measures the class.
func (w workloadSpec) inMain(c class) bool { return w.mix[c] > 0 }

// stream is one client's op sequence: a pure function of (workload,
// phase, seed, client). The program under test sees nothing else.
type stream struct {
	rng  *rand.Rand
	w    workloadSpec
	c    corpus
	only class // numClasses in the main phase, the probed class in a probe
	hot  int   // the hotspot auction: fixed per seed, shared by every client
	step int   // position in the replica workload's insert → rooted → point cycle
	key  int   // auction of the cycle's insert, which its point read asks for
}

func seededRand(parts ...any) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, parts...)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func newStream(w workloadSpec, c corpus, phase string, seed int64, client int) *stream {
	return &stream{
		rng:  seededRand(w.name, "/", phase, "/", seed, "/", client),
		w:    w,
		c:    c,
		only: numClasses,
		hot:  seededRand("hot/", seed).Intn(c.auctions),
	}
}

// probeStream generates only ops of one class; a probe's inserts and
// RYW cycles are uniform whatever the workload, so they stay point-sized.
func probeStream(w workloadSpec, c corpus, cl class, seed int64) *stream {
	s := newStream(w, c, "probe-"+cl.String(), seed, 0)
	s.only = cl
	return s
}

func (s *stream) next() op {
	main := s.only == numClasses
	if main && s.w.follower {
		// The reader follows the writer: insert, then a rooted and a
		// point read that must both see it.
		s.step++
		switch s.step % 3 {
		case 1:
			s.key = s.rng.Intn(s.c.auctions)
			return op{Class: clInsert, Key: s.key}
		case 2:
			return op{Class: clRooted}
		}
		return op{Class: clPoint, Key: s.key, Auction: true}
	}
	cl := s.only
	if main { // draw the class from the mix's weights
		total := 0
		for _, wt := range s.w.mix {
			total += wt
		}
		r := s.rng.Intn(total)
		for cl = 0; r >= s.w.mix[cl]; cl++ {
			r -= s.w.mix[cl]
		}
	}
	switch cl {
	case clPoint:
		return op{Class: clPoint, Key: s.rng.Intn(s.c.items)}
	case clInsert, clRYW:
		if main && s.w.hotspot {
			return op{Class: cl, Key: s.hot}
		}
		return op{Class: cl, Key: s.rng.Intn(s.c.auctions)}
	}
	return op{Class: cl}
}

// tracedOps is the op sequence the in-process traced run replays: the
// first n main-phase ops with the clients' streams interleaved round
// robin, then n/8 ops of every class the main phase lacks. It always
// interleaves maxClients streams, so it does not depend on the machine.
func tracedOps(w workloadSpec, c corpus, seed int64, n int) []op {
	n /= max(w.tracedDiv, 1)
	streams := make([]*stream, maxClients)
	if w.follower {
		streams = streams[:1] // one writer; the reader follows it
	}
	for i := range streams {
		streams[i] = newStream(w, c, "main", seed, i)
	}
	ops := make([]op, 0, n+n/2)
	for i := 0; i < n; i++ {
		ops = append(ops, streams[i%len(streams)].next())
	}
	for cl := clPoint; cl <= clInsert; cl++ {
		if w.inMain(cl) {
			continue
		}
		ps := probeStream(w, c, cl, seed)
		for i := 0; i < max(n/8, 8); i++ {
			ops = append(ops, ps.next())
		}
	}
	return ops
}

// renderOps is the byte form of an op sequence — exactly the request
// lines and bodies ltreed would receive — used to pin determinism.
func renderOps(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		if o.Class == clInsert {
			fmt.Fprintf(&b, "POST %s\n%s\n", o.target(0), fragment)
		} else {
			fmt.Fprintf(&b, "GET %s\n", o.target(0))
		}
	}
	return b.Bytes()
}
