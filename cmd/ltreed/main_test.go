package main

// End-to-end daemon test: a leader node (WAL + ship listener on a real
// TCP port) and a follower attached over the wire, both serving the
// HTTP surface. Pins the read-your-writes flow the daemon exists for:
// write to the leader, read from the follower with wait_seq.

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ltree "github.com/ltree-db/ltree"
	"github.com/ltree-db/ltree/internal/storage"
)

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
		}
	}
	return resp
}

func TestLeaderFollowerHTTP(t *testing.T) {
	// Leader: seeded store on a WAL, replication listener on a real port.
	w, err := ltree.NewWALBackend(t.TempDir(), ltree.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st, err := ltree.OpenString(`<shop><item><name>mug</name></item></shop>`, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithWAL(w); err != nil {
		t.Fatal(err)
	}
	ship, err := storage.NewShipServer(w)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ship.Serve(ln)
	defer ship.Close()

	src := w.(storage.TailSource)
	leaderSrv := httptest.NewServer(newHandler(&leaderNode{Store: st, src: src}, 5*time.Second))
	defer leaderSrv.Close()

	// Follower: attaches over TCP, serves the same surface.
	addr := ln.Addr().String()
	rsrc, err := storage.OpenRemoteTail(func() (net.Conn, error) { return net.Dial("tcp", addr) }, storage.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrc.Close()
	f, err := ltree.OpenFollower(rsrc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	followerSrv := httptest.NewServer(newHandler(&followerNode{Follower: f}, time.Second))
	defer followerSrv.Close()

	// Both roles answer the seeded query.
	for _, srv := range []*httptest.Server{leaderSrv, followerSrv} {
		var res resultJSON
		if resp := getJSON(t, srv, "/v1/query?q=//item/name", &res); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d", resp.StatusCode)
		}
		if res.Count != 1 || res.Results[0].Tag != "name" || res.Results[0].Text != "mug" {
			t.Fatalf("query result = %+v", res)
		}
	}

	// Write on the leader, then a wait_seq read on the follower sees it.
	resp, err := leaderSrv.Client().Post(
		leaderSrv.URL+"/v1/insert?parent=//shop", "application/xml",
		strings.NewReader(`<item><name>pot</name></item>`))
	if err != nil {
		t.Fatal(err)
	}
	var ins struct {
		Seq uint64 `json:"seq"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ins); err != nil || ins.Seq == 0 {
		t.Fatalf("insert reply %q: seq=%d err=%v", body, ins.Seq, err)
	}
	var res resultJSON
	if resp := getJSON(t, followerSrv, "/v1/query?q=//item&wait_seq="+jsonUint(ins.Seq), &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower wait_seq query: status %d", resp.StatusCode)
	}
	if res.Count != 2 {
		t.Fatalf("follower sees %d items after wait_seq=%d, want 2", res.Count, ins.Seq)
	}

	// curl -d posts with a form content type; the handler must still read
	// the body as the raw XML fragment, not consume it as form data.
	resp, err = leaderSrv.Client().Post(
		leaderSrv.URL+"/v1/insert?parent=//shop", "application/x-www-form-urlencoded",
		strings.NewReader(`<item><name>urn</name></item>`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("form-typed insert: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ins); err != nil || ins.Seq == 0 {
		t.Fatalf("form-typed insert reply %q: seq=%d err=%v", body, ins.Seq, err)
	}
	if resp := getJSON(t, followerSrv, "/v1/query?q=//item/name&wait_seq="+jsonUint(ins.Seq), &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower query after form-typed insert: status %d", resp.StatusCode)
	}
	if res.Count != 3 {
		t.Fatalf("follower sees %d names after form-typed insert, want 3", res.Count)
	}

	// Labels answer ancestry straight off the wire format.
	var items, names resultJSON
	getJSON(t, followerSrv, "/v1/elements?tag=item", &items)
	getJSON(t, followerSrv, "/v1/elements?tag=name", &names)
	if len(items.Results) != 3 || len(names.Results) != 3 {
		t.Fatalf("elements: %d items, %d names", len(items.Results), len(names.Results))
	}
	contains := func(a, d elemJSON) bool { return a.Begin < d.Begin && d.End < a.End }
	for _, nm := range names.Results {
		anc := 0
		for _, it := range items.Results {
			if contains(it, nm) {
				anc++
			}
		}
		if anc != 1 {
			t.Fatalf("name %+v has %d item ancestors by label, want 1", nm, anc)
		}
	}

	// A follower refuses writes loudly.
	resp, err = followerSrv.Client().Post(followerSrv.URL+"/v1/insert?parent=//shop", "application/xml", strings.NewReader(`<x/>`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower insert: status %d, want 403", resp.StatusCode)
	}

	// A wait_seq the replica can never reach times out as 504.
	if resp := getJSON(t, followerSrv, "/v1/query?q=//item&wait_seq=999999", nil); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unreachable wait_seq: status %d, want 504", resp.StatusCode)
	}

	// Document routing is a forest feature: a plain leader says so (501),
	// a follower refuses writes outright (403).
	if resp, _ := doReq(t, leaderSrv, http.MethodPut, "/v1/doc?id=d1", `<d/>`); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("leader PUT /v1/doc: status %d, want 501", resp.StatusCode)
	}
	if resp, _ := doReq(t, followerSrv, http.MethodPut, "/v1/doc?id=d1", `<d/>`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower PUT /v1/doc: status %d, want 403", resp.StatusCode)
	}

	// Stats report the roles, plus per-backend txn pin accounting (the
	// follower's replica store is a real store too).
	var stats map[string]any
	getJSON(t, leaderSrv, "/v1/stats", &stats)
	if stats["role"] != "leader" {
		t.Fatalf("leader stats = %v", stats)
	}
	if _, ok := stats["txn_open"]; !ok {
		t.Fatalf("leader stats missing txn_open: %v", stats)
	}
	getJSON(t, followerSrv, "/v1/stats", &stats)
	if stats["role"] != "follower" {
		t.Fatalf("follower stats = %v", stats)
	}
	if _, ok := stats["txn_retired"]; !ok {
		t.Fatalf("follower stats missing txn_retired: %v", stats)
	}
}

func doReq(t *testing.T, srv *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// TestForestHTTP drives the forest role end to end: whole-document
// routing over /v1/doc, scatter-gather queries, targeted inserts routed
// to the owning shard, and the aggregated stats surface.
func TestForestHTTP(t *testing.T) {
	f, err := ltree.OpenForest(t.TempDir(), ltree.ForestOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(newHandler(&forestNode{Forest: f}, time.Second))
	defer srv.Close()

	// Upsert documents; each lands on its id's shard.
	var put struct {
		ID  string `json:"id"`
		Seq uint64 `json:"seq"`
	}
	for i, src := range []string{
		`<shop><item><name>mug</name></item></shop>`,
		`<shop><item><name>pot</name></item><item><name>urn</name></item></shop>`,
		`<archive><box/></archive>`,
	} {
		resp, body := doReq(t, srv, http.MethodPut, "/v1/doc?id=doc-"+jsonUint(uint64(i)), src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT doc %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &put); err != nil || put.Seq == 0 {
			t.Fatalf("PUT doc %d reply %q: seq=%d err=%v", i, body, put.Seq, err)
		}
	}

	// Queries fan out across every shard and merge.
	var res resultJSON
	if resp := getJSON(t, srv, "/v1/query?q=//item/name", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	if res.Count != 3 {
		t.Fatalf("forest query found %d names, want 3", res.Count)
	}

	// Insert routes through the owning document's shard. The parent
	// expression must name exactly one element forest-wide.
	resp, body := doReq(t, srv, http.MethodPost, "/v1/insert?parent=//archive", `<box/>`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := doReq(t, srv, http.MethodPost, "/v1/insert?parent=//shop", `<x/>`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous insert: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/elements?tag=box", &res); resp.StatusCode != http.StatusOK || res.Count != 2 {
		t.Fatalf("boxes after insert: status %d count %d, want 2", resp.StatusCode, res.Count)
	}

	// Delete drops the document; deleting it again is a 404.
	if resp, body := doReq(t, srv, http.MethodDelete, "/v1/doc?id=doc-2", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE doc-2: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := doReq(t, srv, http.MethodDelete, "/v1/doc?id=doc-2", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE missing doc: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/elements?tag=box", &res); resp.StatusCode != http.StatusOK || res.Count != 0 {
		t.Fatalf("boxes after delete: status %d count %d, want 0", resp.StatusCode, res.Count)
	}

	// Stats aggregate per-shard counters under the forest role.
	var stats map[string]any
	getJSON(t, srv, "/v1/stats", &stats)
	if stats["role"] != "forest" || stats["shards"] != float64(3) || stats["docs"] != float64(2) {
		t.Fatalf("forest stats = %v", stats)
	}
	shards, ok := stats["shard"].([]any)
	if !ok || len(shards) != 3 {
		t.Fatalf("forest stats shard breakdown = %v", stats["shard"])
	}
	for i, raw := range shards {
		m, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("shard %d stats = %v", i, raw)
		}
		for _, k := range []string{"docs", "seq", "index_version", "txn_open", "txn_retired"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("shard %d stats missing %q: %v", i, k, m)
			}
		}
	}
}

// TestLeaderBlobStatsAndSeededFollower drives the blob-tier daemon path
// end to end: a leader with an attached tier exposes wal/blob sections
// in /v1/stats, and a follower seeded from the same blob store (over a
// real replication socket for the live tail) converges and answers the
// same queries.
func TestLeaderBlobStatsAndSeededFollower(t *testing.T) {
	blobRoot := t.TempDir()
	bs, err := ltree.NewBlobDir(blobRoot)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ltree.NewWALBackend(t.TempDir(), ltree.WALOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tier, err := ltree.AttachBlobTier(w, bs, ltree.BlobTierOptions{Prefix: "node-a"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ltree.OpenString(`<shop><item><name>mug</name></item></shop>`, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WithWAL(w); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for i := 0; i < 20; i++ {
		if _, err := st.InsertXML(st.Root(), 0, `<item><name>bulk</name></item>`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ws, ok := st.WALStats()
	if !ok {
		t.Fatal("leader store has no WAL stats")
	}
	seq = ws.Seq
	if err := tier.Barrier(30 * time.Second); err != nil {
		t.Fatalf("tier barrier: %v", err)
	}

	ship, err := storage.NewShipServer(w)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ship.Serve(ln)
	defer ship.Close()

	leaderSrv := httptest.NewServer(newHandler(&leaderNode{Store: st, src: w.(storage.TailSource)}, 5*time.Second))
	defer leaderSrv.Close()

	// /v1/stats carries the retention + tier sections.
	var stats map[string]any
	getJSON(t, leaderSrv, "/v1/stats", &stats)
	wal, ok := stats["wal"].(map[string]any)
	if !ok {
		t.Fatalf("leader stats missing wal section: %v", stats)
	}
	for _, k := range []string{"checkpoint_seq", "local_segments", "oldest_local_base", "leases", "lease_floor"} {
		if _, ok := wal[k]; !ok {
			t.Fatalf("wal stats missing %q: %v", k, wal)
		}
	}
	blob, ok := stats["blob"].(map[string]any)
	if !ok {
		t.Fatalf("leader stats missing blob section: %v", stats)
	}
	for _, k := range []string{"durable_seq", "upload_lag", "uploaded_segments", "uploaded_checkpoints", "local_released", "manifest_writes"} {
		if _, ok := blob[k]; !ok {
			t.Fatalf("blob stats missing %q: %v", k, blob)
		}
	}
	if blob["upload_lag"] != float64(0) || blob["durable_seq"] != float64(seq) {
		t.Fatalf("tier caught up but stats say %v", blob)
	}

	// Blob-seeded follower over the wire: bootstrap from the object
	// store, live tail from the leader socket.
	addr := ln.Addr().String()
	rsrc, err := storage.OpenRemoteTail(func() (net.Conn, error) { return net.Dial("tcp", addr) }, storage.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrc.Close()
	f, err := ltree.OpenFollowerSeeded(rsrc, bs, "node-a")
	if err != nil {
		t.Fatalf("blob-seeded bootstrap: %v", err)
	}
	defer f.Close()
	followerSrv := httptest.NewServer(newHandler(&followerNode{Follower: f}, 5*time.Second))
	defer followerSrv.Close()

	// A write on the leader after the seed reaches the follower live.
	resp, body := doReq(t, leaderSrv, http.MethodPost, "/v1/insert?parent=//shop", `<item><name>fresh</name></item>`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d: %s", resp.StatusCode, body)
	}
	var ins struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(body, &ins); err != nil || ins.Seq <= seq {
		t.Fatalf("insert reply %q (prev seq %d): %v", body, seq, err)
	}
	var res resultJSON
	if resp := getJSON(t, followerSrv, "/v1/query?q=//item/name&wait_seq="+jsonUint(ins.Seq), &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower wait_seq query: status %d", resp.StatusCode)
	}
	if res.Count != 22 { // 1 seeded + 20 bulk + 1 fresh
		t.Fatalf("seeded follower sees %d names, want 22", res.Count)
	}
}

func TestHealthz(t *testing.T) {
	st, err := ltree.OpenString(`<r/>`, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ltree.NewWALBackend(t.TempDir(), ltree.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := st.WithWAL(w); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(&leaderNode{Store: st, src: w.(storage.TailSource)}, time.Second))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// failOnceWAL fails the next append when fail is set.
type failOnceWAL struct {
	ltree.WALBackend
	fail bool
}

func (f *failOnceWAL) AppendBatch(p []byte) (uint64, error) {
	if f.fail {
		f.fail = false
		return 0, errors.New("injected append failure")
	}
	return f.WALBackend.AppendBatch(p)
}

// TestFencedLeaderWrite503: a leader whose WAL append fails is fenced,
// and its writes answer 503 — a server fault, not the client's — while
// reads keep serving. The second insert reaches a healthy WAL, so only
// the fence can refuse it.
func TestFencedLeaderWrite503(t *testing.T) {
	st, err := ltree.OpenString(`<shop/>`, ltree.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ltree.NewWALBackend(t.TempDir(), ltree.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	flaky := &failOnceWAL{WALBackend: w}
	if err := st.WithWAL(flaky); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(&leaderNode{Store: st, src: w.(storage.TailSource)}, time.Second))
	defer srv.Close()

	flaky.fail = true
	for i, what := range []string{"failed append", "write after the fence"} {
		resp, body := doReq(t, srv, http.MethodPost, "/v1/insert?parent=//shop", `<item/>`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("insert %d (%s): status %d, want 503: %s", i, what, resp.StatusCode, body)
		}
	}
	var res resultJSON
	if resp := getJSON(t, srv, "/v1/query?q=//item", &res); resp.StatusCode != http.StatusOK || res.Count != 0 {
		t.Fatalf("query on a fenced leader: status %d, %d items, want 200 and 0", resp.StatusCode, res.Count)
	}
}
