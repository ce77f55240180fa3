package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ltree-db/ltree/internal/workload"
)

// runOpts sizes one run; run() in main.go fills it from the flags.
type runOpts struct {
	seed      int64
	scale     int
	window    time.Duration // measured window of the main phase
	warm      time.Duration // discarded head of the main phase
	probe     time.Duration // measured window of each probe phase
	clients   int
	tracedOps int
}

// httpResult is what the end-to-end run of one workload produced.
type httpResult struct {
	EndToEnd  metrics        `json:"end_to_end"`
	Ltreed    metrics        `json:"ltreed"` // per-layer figures only the HTTP run can see
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"` // first few, for diagnosis
	Checks    map[string]any `json:"checks"`
	// Runs holds every repeat's value per end-to-end metric when the
	// workload was run more than once (-runs); EndToEnd is then their
	// median, and -compare takes the run-to-run spread from here.
	Runs map[string][]float64 `json:"runs,omitempty"`
}

// mergeRuns folds repeats of one workload into one result: the first
// run's detail, every run's failures, medians as the headline.
func mergeRuns(reps []*httpResult) *httpResult {
	out := reps[0]
	if len(reps) == 1 {
		return out
	}
	out.Runs = map[string][]float64{}
	for _, r := range reps[1:] {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Failures = append(out.Failures, r.Failures...)
	}
	for name, m := range out.EndToEnd {
		for _, r := range reps {
			out.Runs[name] = append(out.Runs[name], r.EndToEnd[name].Value)
		}
		m.Value = median(out.Runs[name])
		out.EndToEnd[name] = m
	}
	return out
}

// sample is one completed request (or RYW cycle).
type sample struct {
	cl      class
	lat     time.Duration
	bytes   int
	results int
}

// httpClient is one closed-loop client: one keep-alive connection, one
// request in flight.
type httpClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

// do sends one request and reads the whole response. The returned body
// is only valid until the next call.
func (c *httpClient) do(method, url, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// loadRun is the state of one workload's end-to-end run.
type loadRun struct {
	w    workloadSpec
	opt  runOpts
	c    corpus
	or   *oracle
	cl   *cluster
	read *node // where queries go: the follower when there is one

	sent, acked atomic.Int64 // inserts
	lastSeq     atomic.Uint64
	sentK       []atomic.Int32 // per auction
	ackedK      []atomic.Int32

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func (r *loadRun) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *loadRun) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// queryResp is a query response decoded in full; only point reads,
// whose responses are small, are.
type queryResp struct {
	Results []struct {
		Tag   string            `json:"tag"`
		Attrs map[string]string `json:"attrs"`
		Text  string            `json:"text"`
	} `json:"results"`
}

// headCount reads "count" from the head of a query response; -1 if the
// response does not look like one.
func headCount(body []byte) int {
	head := body[:min(len(body), 96)]
	i := bytes.Index(head, []byte(`"count":`))
	if i < 0 {
		return -1
	}
	n, seen := 0, false
	for _, ch := range head[i+len(`"count":`):] {
		if ch < '0' || ch > '9' {
			break
		}
		n, seen = n*10+int(ch-'0'), true
	}
	if !seen {
		return -1
	}
	return n
}

// insert posts the fragment under auction k and returns the commit seq.
func (r *loadRun) insert(c *httpClient, k int) (seq uint64, lat time.Duration, ok bool) {
	o := op{Class: clInsert, Key: k}
	r.sentK[k].Add(1)
	r.sent.Add(1)
	t0 := time.Now()
	status, body, err := c.do("POST", "http://"+r.cl.leader.http+o.target(0), fragment)
	lat = time.Since(t0)
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &ack)
	}
	if err != nil || status != http.StatusOK || ack.Seq == 0 {
		r.fail("insert auction%d: status %d err %v body %.80q", k, status, err, body)
		return 0, lat, false
	}
	r.ackedK[k].Add(1)
	r.acked.Add(1)
	for {
		cur := r.lastSeq.Load()
		if ack.Seq <= cur || r.lastSeq.CompareAndSwap(cur, ack.Seq) {
			break
		}
	}
	return ack.Seq, lat, true
}

// query issues one read and checks the response against the oracle.
// visible is how many inserts into the op's auction the read is entitled
// to see: the acknowledged ones as of waitSeq when the caller knows that
// number, or -1 for "every one acknowledged by now", which is right on
// the leader and whenever waitSeq is the latest seq.
func (r *loadRun) query(c *httpClient, n *node, o op, waitSeq uint64, visible int) (lat time.Duration, size, results int, ok bool) {
	// What the oracle allows: everything the read is entitled to must be
	// there, nothing beyond what was sent by the time it answered.
	var lo, hi int
	switch {
	case o.Class == clScan:
		lo = r.or.scan + int(r.acked.Load())
	case o.Class == clRooted:
		lo = r.or.rooted
	case o.Auction:
		if visible < 0 {
			visible = int(r.ackedK[o.Key].Load())
		}
		lo = r.or.bidders[o.Key] + visible
	default:
		lo = 1
	}
	t0 := time.Now()
	status, body, err := c.do("GET", "http://"+n.http+o.target(waitSeq), "")
	lat = time.Since(t0)
	switch {
	case o.Class == clScan:
		hi = r.or.scan + int(r.sent.Load())
	case o.Auction:
		hi = r.or.bidders[o.Key] + int(r.sentK[o.Key].Load())
	default:
		hi = lo
	}
	if err != nil || status != http.StatusOK {
		r.fail("%s: status %d err %v body %.80q", o.queryExpr(), status, err, body)
		return lat, 0, 0, false
	}
	count := headCount(body)
	if why := r.mismatch(o, body, count, lo, hi); why != "" {
		r.fail("%s: %s", o.queryExpr(), why)
		return lat, len(body), count, false
	}
	return lat, len(body), count, true
}

// mismatch says how a 200 response departs from the oracle, or "".
func (r *loadRun) mismatch(o op, body []byte, count, lo, hi int) string {
	if count < lo || count > hi || bytes.Count(body, []byte(`{"tag":"`)) != count {
		return fmt.Sprintf("count %d, oracle expects %d..%d", count, lo, hi)
	}
	if o.Class != clPoint {
		return ""
	}
	var resp queryResp
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != count {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	first := resp.Results[0] // lo ≥ 1 for every point read
	switch {
	case !o.Auction && (first.Tag != "name" || first.Text != r.or.itemName[o.Key]):
		return fmt.Sprintf("got <%s>%q, oracle expects <name>%q", first.Tag, first.Text, r.or.itemName[o.Key])
	case o.Auction && lo > r.or.bidders[o.Key] && first.Attrs["bench"] != "1":
		return "first bidder is not the inserted one"
	}
	return ""
}

// phase is one timed stretch of load: a warm-up whose samples are
// dropped, then the measured window.
type phase struct {
	start time.Time
	warm  time.Duration
	end   time.Time
}

func (p *phase) more() bool { return time.Now().Before(p.end) }

// recorder collects one worker's samples; only that worker's goroutine
// calls add.
type recorder struct {
	p       *phase
	samples []sample
}

func (rec *recorder) add(cl class, started time.Time, lat time.Duration, size, results int) {
	if started.Sub(rec.p.start) < rec.p.warm {
		return
	}
	rec.samples = append(rec.samples, sample{cl, lat, size, results})
}

// phaseResult is what a phase measured: the samples of requests started
// after the warm-up, and the length of the window they were started in.
type phaseResult struct {
	samples []sample
	window  time.Duration
}

// runPhase runs the workers until the deadline.
func runPhase(warm, window time.Duration, workers ...func(p *phase, rec *recorder)) *phaseResult {
	p := &phase{start: time.Now(), warm: warm}
	p.end = p.start.Add(warm + window)
	recs := make([]*recorder, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		recs[i] = &recorder{p: p}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w(p, recs[i])
		}()
	}
	wg.Wait()
	res := &phaseResult{window: window}
	for _, rec := range recs {
		res.samples = append(res.samples, rec.samples...)
	}
	return res
}

// exec runs one generated op against the cluster and records it.
func (r *loadRun) exec(c *httpClient, rec *recorder, o op) {
	r.attempt(1)
	t0 := time.Now()
	switch o.Class {
	case clInsert:
		if _, lat, ok := r.insert(c, o.Key); ok {
			rec.add(clInsert, t0, lat, 0, 0)
		}
	case clRYW:
		// Insert on the leader, then read the auction back from the read
		// node with the returned seq: one cycle, one latency.
		seq, _, ok := r.insert(c, o.Key)
		if !ok {
			return
		}
		if _, _, _, ok := r.query(c, r.read, op{Class: clPoint, Key: o.Key, Auction: true}, seq, -1); ok {
			rec.add(clRYW, t0, time.Since(t0), 0, 0)
		}
	default:
		// A reader of a replica asks for everything acknowledged so far.
		var waitSeq uint64
		if r.read != r.cl.leader {
			waitSeq = r.lastSeq.Load()
		}
		if lat, size, results, ok := r.query(c, r.read, o, waitSeq, -1); ok {
			rec.add(o.Class, t0, lat, size, results)
		}
	}
}

// mainPhase is the workload's measured window.
func (r *loadRun) mainPhase() *phaseResult {
	if r.w.follower {
		return r.replicaPhase()
	}
	workers := make([]func(*phase, *recorder), r.opt.clients)
	for i := range workers {
		s := newStream(r.w, r.c, "main", r.opt.seed, i)
		c := newHTTPClient()
		workers[i] = func(p *phase, rec *recorder) {
			for p.more() {
				r.exec(c, rec, s.next())
			}
		}
	}
	return runPhase(r.opt.warm, r.opt.window, workers...)
}

// ack is one acknowledged insert handed from the writer to the reader.
type ack struct {
	seq     uint64
	key     int
	visible int // inserts into the auction acknowledged up to seq, this one included
	sent    time.Time
}

// replicaPhase runs one writer on the leader at full closed-loop speed
// beside one reader on the follower. The reader, whenever it is free,
// takes the next insert to be acknowledged and issues a rooted and a
// point read with wait_seq; the point read must return the new element
// and its completion ends the read-your-writes interval.
func (r *loadRun) replicaPhase() *phaseResult {
	latest := make(chan ack, 1) // a mailbox: the writer overwrites, the reader takes the freshest
	writer := func(p *phase, rec *recorder) {
		s := newStream(r.w, r.c, "main", r.opt.seed, 0)
		c := newHTTPClient()
		for p.more() {
			o := s.next()
			if o.Class != clInsert {
				continue // the reader's half of the cycle
			}
			r.attempt(1)
			t0 := time.Now()
			seq, lat, ok := r.insert(c, o.Key)
			if !ok {
				continue
			}
			rec.add(clInsert, t0, lat, 0, 0)
			select {
			case <-latest:
			default:
			}
			latest <- ack{seq, o.Key, int(r.ackedK[o.Key].Load()), t0} // one writer: the count is as of seq
		}
		close(latest)
	}
	reader := func(p *phase, rec *recorder) {
		c := newHTTPClient()
		for {
			select { // drop an ack that went stale while the reader was busy
			case <-latest:
			default:
			}
			a, open := <-latest
			if !open {
				return
			}
			r.attempt(3)
			t0 := time.Now()
			lat, size, results, ok := r.query(c, r.read, op{Class: clRooted}, a.seq, -1)
			if ok {
				rec.add(clRooted, t0, lat, size, results)
			}
			t1 := time.Now()
			lat, size, results, ok2 := r.query(c, r.read, op{Class: clPoint, Key: a.key, Auction: true}, a.seq, a.visible)
			if ok2 {
				rec.add(clPoint, t1, lat, size, results)
			}
			if ok && ok2 {
				rec.add(clRYW, a.sent, time.Since(a.sent), 0, 0)
			} else {
				r.fail("read-your-writes cycle for seq %d incomplete", a.seq)
			}
		}
	}
	return runPhase(r.opt.warm, r.opt.window, writer, reader)
}

// probePhase measures one class the main phase lacks, with one client.
func (r *loadRun) probePhase(cl class) *phaseResult {
	s := probeStream(r.w, r.c, cl, r.opt.seed)
	c := newHTTPClient()
	return runPhase(r.opt.probe*3/10, r.opt.probe, func(p *phase, rec *recorder) {
		for p.more() {
			r.exec(c, rec, s.next())
		}
	})
}

// latenciesMs returns the latency of every sample of the class.
func (pr *phaseResult) latenciesMs(cl class) []float64 {
	var out []float64
	for _, s := range pr.samples {
		if s.cl == cl {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	return out
}

func httpRun(ctx context.Context, bin, parentDir string, w workloadSpec, opt runOpts) (*httpResult, error) {
	workDir, err := os.MkdirTemp(parentDir, "http-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	c := corpusFor(opt.scale)
	seedXML := workload.XMarkLite(opt.scale, opt.seed).String()
	or, err := newOracle(seedXML, c)
	if err != nil {
		return nil, err
	}
	seedFile := filepath.Join(workDir, "seed.xml")
	if err := os.WriteFile(seedFile, []byte(seedXML), 0o644); err != nil {
		return nil, err
	}
	res := &httpResult{EndToEnd: metrics{}, Ltreed: metrics{}, Checks: map[string]any{}}

	// Set-up: fresh ltreed on an empty WAL until it answers /healthz (and,
	// with a follower, until that has caught up).
	clu := &cluster{bin: bin, dir: workDir, seedFile: seedFile}
	defer clu.stop()
	t0 := time.Now()
	if err := clu.startLeader(ctx); err != nil {
		return nil, err
	}
	if w.follower {
		if err := clu.startFollower(ctx); err != nil {
			return nil, err
		}
	}
	res.EndToEnd["setup_s"] = measurement{Value: time.Since(t0).Seconds(), Unit: "s"}

	r := &loadRun{w: w, opt: opt, c: c, or: or, cl: clu, read: clu.leader,
		sentK: make([]atomic.Int32, c.auctions), ackedK: make([]atomic.Int32, c.auctions)}
	if w.follower {
		r.read = clu.follower
	}

	// Classes the main phase lacks are probed on the freshly set-up
	// cluster, where every run finds the same state (after a write window
	// the server's collector would make a short probe bimodal): first the
	// reads, while nothing has been written, then the writes — except that
	// a main phase without writes comes before the write probes, so its
	// window too sees a store nobody has written to.
	var probes [numClasses]*phaseResult
	probe := func(write bool) {
		for cl := class(0); cl < numClasses; cl++ {
			if !w.inMain(cl) && write == (cl == clInsert || cl == clRYW) {
				probes[cl] = r.probePhase(cl)
			}
		}
	}
	probe(false)
	if w.inMain(clInsert) {
		probe(true)
	}
	main := r.mainPhase()
	rss, err := rssMB(clu.leader.cmd.Process.Pid)
	if err != nil {
		return nil, fmt.Errorf("leader's resident set: %w", err)
	}
	if !w.inMain(clInsert) {
		probe(true)
	}
	phaseOf := func(cl class) *phaseResult {
		if w.inMain(cl) {
			return main
		}
		return probes[cl]
	}

	// Every figure is taken over the whole measured window.
	e, l := res.EndToEnd, res.Ltreed
	requests := 0
	for _, s := range main.samples {
		if s.cl != clRYW { // a cycle's insert and reads are already counted
			requests++
		}
	}
	e["ops_per_s"] = measurement{float64(requests) / main.window.Seconds(), "1/s", requests}
	e["leader_rss_mb"] = measurement{Value: rss, Unit: "MB"}
	var lat [numClasses][]float64
	for cl, name := range [numClasses]string{clPoint: "query_point_p50_ms", clScan: "query_scan_p50_ms",
		clRooted: "query_rooted_p50_ms", clInsert: "insert_p50_ms", clRYW: "ryw_p50_ms"} {
		lat[cl] = phaseOf(class(cl)).latenciesMs(class(cl))
		e[name] = measurement{median(lat[cl]), "ms", len(lat[cl])}
		if len(lat[cl]) == 0 {
			r.fail("class %s completed no request", class(cl))
		}
	}
	var scanBytes []float64
	var scanMB, scanSeconds float64
	scanResults := 0
	for _, s := range phaseOf(clScan).samples {
		if s.cl == clScan {
			scanBytes = append(scanBytes, float64(s.bytes))
			scanMB += float64(s.bytes) / 1e6
			scanSeconds += s.lat.Seconds()
			scanResults = s.results
		}
	}
	e["scan_mb_per_s"] = measurement{scanMB / max(scanSeconds, 1e-9), "MB/s", len(scanBytes)}

	l["ltreed.resp_bytes_per_scan"] = measurement{median(scanBytes), "B", len(scanBytes)}
	l["ltreed.insert_p99_ms"] = measurement{quantile(lat[clInsert], 0.99), "ms", len(lat[clInsert])}
	l["ltreed.query_point_p99_ms"] = measurement{quantile(lat[clPoint], 0.99), "ms", len(lat[clPoint])}
	l["ltreed.query_scan_p99_ms"] = measurement{quantile(lat[clScan], 0.99), "ms", len(lat[clScan])}
	l["ltreed.insert_max_ms"] = measurement{quantile(lat[clInsert], 1), "ms", len(lat[clInsert])}
	res.Checks["scan_results"] = scanResults

	r.finalChecks(ctx, res)
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	return res, nil
}

// finalChecks holds the cluster to the state the acknowledgements
// imply: one marker per acknowledged insert, follower identical to the
// leader, and a SIGKILLed leader back with everything it acknowledged.
func (r *loadRun) finalChecks(ctx context.Context, res *httpResult) {
	check := func(name string, ok bool, format string, args ...any) {
		r.attempt(1)
		res.Checks[name] = ok
		if !ok {
			r.fail(name+": "+format, args...)
		}
	}
	acked := int(r.acked.Load())
	res.Checks["acked_inserts"] = acked
	c := newHTTPClient()
	status, body, err := c.do("GET", "http://"+r.cl.leader.http+"/v1/query?q="+url.QueryEscape(markerQuery), "")
	check("markers_equal_acked", err == nil && status == http.StatusOK && headCount(body) == acked,
		"leader holds %d markers for %d acknowledged inserts (status %d, err %v)", headCount(body), acked, status, err)

	before, err := r.cl.leader.stats()
	check("leader_seq_covers_acked", err == nil && before.Seq >= r.lastSeq.Load() && before.Seq == uint64(acked),
		"leader at seq %d, last acknowledged %d, %d acknowledged (err %v)", before.Seq, r.lastSeq.Load(), acked, err)

	if r.cl.follower != nil {
		fs, err := r.cl.waitCaughtUp(ctx)
		check("follower_root_equals_leader", err == nil && fs.AppliedSeq == before.Seq && fs.RootHash == before.RootHash,
			"follower seq %d root %.12s, leader seq %d root %.12s (err %v)", fs.AppliedSeq, fs.RootHash, before.Seq, before.RootHash, err)
		r.cl.follower.kill()
		r.cl.follower = nil
	}

	// Crash the leader and bring it back from its WAL alone.
	r.cl.leader.kill()
	t0 := time.Now()
	err = r.cl.startLeader(ctx)
	res.Checks["restart_s"] = time.Since(t0).Seconds()
	var after nodeStats
	if err == nil {
		after, err = r.cl.leader.stats()
	}
	check("restart_keeps_acked", err == nil && after.Seq >= r.lastSeq.Load() && after.RootHash == before.RootHash,
		"after SIGKILL: seq %d (acknowledged %d), root %.12s (was %.12s), err %v", after.Seq, r.lastSeq.Load(), after.RootHash, before.RootHash, err)
}
