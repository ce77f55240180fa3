package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The op stream is a pure function of (workload, seed): the same seed
// gives byte-identical requests, another seed gives other requests.
func TestOpStreamIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	c := corpusFor(100)
	for _, w := range workloads {
		a := renderOps(tracedOps(w, c, 7, 512))
		b := renderOps(tracedOps(w, c, 7, 512))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave two different op streams", w.name)
		}
		if other := renderOps(tracedOps(w, c, 8, 512)); bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
		for client := 0; client < maxClients; client++ {
			s1, s2 := newStream(w, c, "main", 7, client), newStream(w, c, "main", 7, client)
			for i := 0; i < 1000; i++ {
				if o1, o2 := s1.next(), s2.next(); o1 != o2 {
					t.Fatalf("%s client %d op %d: %+v vs %+v", w.name, client, i, o1, o2)
				}
			}
		}
	}
}

// BENCHMARK.json is the contract other PRs are held to; it must say
// what the harness measures, name for name.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness table:\n%+v\n%+v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness table:\n%+v\n%+v", bm.PerLayer, perLayer)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, harness has %q: %q", i, bm.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 || !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", bm.RunSeconds, bm.Paths)
	}
}

// The exact-count layer metrics are counts, not timings: two traced
// runs of the same seed must agree to the last digit.
func TestExactLayerCountsRepeat(t *testing.T) {
	opt := runOpts{seed: 5, scale: 100, tracedOps: 256}
	exact := []string{"storage.wal_bytes_per_commit", "core.relabeled_per_insert", "core.splits_per_kinsert",
		"index.chunks_decoded_per_query", "index.chunks_skipped_per_query", "core.label_bits", "storage.checkpoint_bytes"}
	for _, w := range workloads {
		var runs [2]*traced
		for i := range runs {
			tr, err := tracedRun(t.TempDir(), w, opt)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if len(tr.info.Failures) > 0 {
				t.Fatalf("%s: %v", w.name, tr.info.Failures)
			}
			runs[i] = tr
		}
		for _, name := range exact {
			a, b := runs[0].m[name], runs[1].m[name]
			if a.Value != b.Value || a.Samples == 0 && a.Value == 0 {
				t.Errorf("%s %s: %v then %v", w.name, name, a.Value, b.Value)
			}
		}
	}
}

func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "work-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// -quick drives the whole path — build ltreed, spawn, load, oracle,
// crash check, traced run, JSON — in seconds.
func TestQuickEndToEnd(t *testing.T) {
	out := t.TempDir()
	var report bytes.Buffer
	code, err := run(context.Background(), []string{"-quick", "-seed", "3", "-out", out}, &report)
	if code != 0 || err != nil {
		t.Fatalf("exit %d: %v\n%s", code, err, report.String())
	}
	res, err := loadResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		if wr == nil || wr.HTTP == nil || wr.PerLayer == nil {
			t.Fatalf("%s missing from result.json", w.name)
		}
		if wr.HTTP.Failed != 0 || wr.HTTP.Attempted == 0 || len(wr.Traced.Failures) != 0 {
			t.Errorf("%s: %d of %d failed: %v %v", w.name, wr.HTTP.Failed, wr.HTTP.Attempted, wr.HTTP.Failures, wr.Traced.Failures)
		}
		for _, d := range endToEnd {
			if m := wr.HTTP.EndToEnd[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s %s = %v %s", w.name, d.Name, m.Value, m.Unit)
			}
		}
		for _, d := range perLayer {
			if m, ok := wr.PerLayer[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s %s = %+v (present %v)", w.name, d.Name, m, ok)
			}
		}
		for _, check := range []string{"markers_equal_acked", "leader_seq_covers_acked", "restart_keeps_acked"} {
			if ok, _ := wr.HTTP.Checks[check].(bool); !ok {
				t.Errorf("%s: check %s = %v", w.name, check, wr.HTTP.Checks[check])
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Error(err)
		}
	}
	if ok, _ := res.Workloads["mixed_replica"].HTTP.Checks["follower_root_equals_leader"].(bool); !ok {
		t.Error("mixed_replica: follower root was not compared with the leader's")
	}
	if left := leftovers(t, out); len(left) > 0 {
		t.Errorf("work directories left behind: %v", left)
	}
	if !strings.Contains(report.String(), "query_rooted_p50_ms") {
		t.Error("the report does not print the metrics by name")
	}
}

// The BENCHMARK.json form ends with one JSON object holding exactly the
// metrics of the chosen kind.
func TestContractLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var report bytes.Buffer
		code, err := run(context.Background(), []string{"--workload", "write_hotspot", "--seed", "4", "--seconds", "1", "--trace", trace, "-quick", "-out", t.TempDir()}, &report)
		if code != 0 || err != nil {
			t.Fatalf("trace %s: exit %d: %v\n%s", trace, code, err, report.String())
		}
		lines := strings.Split(strings.TrimSpace(report.String()), "\n")
		var line struct {
			Correct   *bool                  `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]measurement `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("trace %s: %s", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v)", trace, d.Name, m, ok)
			}
		}
	}
}

// However a run ends, its ltreed children are dead and its scratch
// directory is gone.
func TestFailedRunLeavesNothingBehind(t *testing.T) {
	out := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	code, err := run(ctx, []string{"-quick", "-out", out}, &bytes.Buffer{})
	if code == 0 || err == nil {
		t.Fatalf("a run cut short after 1.5 s reported success (exit %d)", code)
	}
	if left := leftovers(t, out); len(left) > 0 {
		t.Errorf("work directories left behind: %v", left)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	mk := func(insert []float64, failed int) *result {
		r := &result{Scale: 2000, WindowS: 30, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			h := &httpResult{EndToEnd: metrics{}, Attempted: 1000, Failed: failed, Runs: map[string][]float64{}}
			for _, d := range endToEnd {
				h.EndToEnd[d.Name] = measurement{Value: 1, Unit: d.Unit}
			}
			h.EndToEnd["insert_p50_ms"] = measurement{Value: median(insert), Unit: "ms"}
			h.Runs["insert_p50_ms"] = insert
			r.Workloads[w.name] = &workloadResult{HTTP: h}
		}
		return r
	}
	write := func(r *result) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "result.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(mk([]float64{1.00, 1.01, 0.99, 1.00}, 0))
	for _, tc := range []struct {
		name   string
		new    *result
		code   int
		expect string
	}{
		{"within the bound", mk([]float64{1.05, 1.04, 1.06, 1.05}, 0), 0, "ok"},
		{"past the bound", mk([]float64{1.40, 1.41, 1.39, 1.40}, 0), 1, "REGRESSION"},
		{"too noisy to tell", mk([]float64{0.9, 1.6, 1.2, 1.3}, 0), 0, "unresolved"},
		{"noisy but every run better", mk([]float64{0.5, 0.8, 0.6, 0.7}, 0), 0, "every run better"},
		{"a new failure", mk([]float64{1.00, 1.01, 0.99, 1.00}, 1), 1, "REGRESSION"},
	} {
		var out bytes.Buffer
		code, _ := run(context.Background(), []string{"-compare", base, write(tc.new)}, &out)
		if code != tc.code || !strings.Contains(out.String(), tc.expect) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", tc.name, code, tc.code, tc.expect, out.String())
		}
	}
}
