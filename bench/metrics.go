package main

import (
	"math"
	"slices"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a caller of ltreed sees. failed_frac is reported
// beside them (it is 0 on a healthy run, and BENCHMARK.json may not
// carry a metric that is 0): any increase is a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"query_point_p50_ms", "ms", "lower", 0.25},
	{"query_scan_p50_ms", "ms", "lower", 0.25},
	{"query_rooted_p50_ms", "ms", "lower", 0.25},
	{"insert_p50_ms", "ms", "lower", 0.25},
	{"ryw_p50_ms", "ms", "lower", 0.25},
	{"scan_mb_per_s", "MB/s", "higher", 0.25},
	{"leader_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's metrics, layer by layer. The layers
// are the repository's modules.
var perLayer = []metricDef{
	{Name: "xmldom.parse_seed_ms", Unit: "ms", Better: "lower"},
	{Name: "xmldom.parse_fragment_us", Unit: "us", Better: "lower"},
	{Name: "core.insert_ns_per_leaf", Unit: "ns", Better: "lower"},
	{Name: "core.relabeled_per_insert", Unit: "count", Better: "lower"},
	{Name: "core.splits_per_kinsert", Unit: "count", Better: "lower"},
	{Name: "core.label_bits", Unit: "count", Better: "lower"},
	{Name: "document.load_ms", Unit: "ms", Better: "lower"},
	{Name: "document.insert_us", Unit: "us", Better: "lower"},
	{Name: "document.take_us", Unit: "us", Better: "lower"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower"},
	{Name: "index.apply_us", Unit: "us", Better: "lower"},
	{Name: "index.root_hash_us", Unit: "us", Better: "lower"},
	{Name: "index.first_read_after_commit_us", Unit: "us", Better: "lower"},
	{Name: "index.chunks_decoded_per_query", Unit: "count", Better: "lower"},
	{Name: "index.chunks_skipped_per_query", Unit: "count", Better: "higher"},
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.point_drain_us", Unit: "us", Better: "lower"},
	{Name: "query.scan_drain_us", Unit: "us", Better: "lower"},
	{Name: "query.rooted_drain_us", Unit: "us", Better: "lower"},
	{Name: "query.entries_per_result", Unit: "count", Better: "lower"},
	{Name: "query.resolve_parent_us", Unit: "us", Better: "lower"},
	{Name: "storage.encode_ops_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_write_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_fsync_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "storage.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.ship_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "store.update_us", Unit: "us", Better: "lower"},
	{Name: "store.unattributed_frac", Unit: "frac", Better: "lower"},
	{Name: "store.view_query_us", Unit: "us", Better: "lower"},
	{Name: "follower.apply_lag_us", Unit: "us", Better: "lower"},
	{Name: "follower.catchup_batches_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ltreed.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "ltreed.render_us_per_kresult", Unit: "us", Better: "lower"},
	{Name: "ltreed.resp_bytes_per_scan", Unit: "B", Better: "lower"},
	{Name: "ltreed.insert_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ltreed.query_point_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ltreed.query_scan_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ltreed.insert_max_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.span_coverage_frac", Unit: "frac", Better: "higher"},
}

// measurement is one reported value. Samples is how many observations
// the figure summarises (0 for a single reading such as RSS).
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metrics map[string]measurement

// quantile returns the q-quantile of xs by nearest rank on a sorted
// copy; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
