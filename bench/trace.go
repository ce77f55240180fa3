package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the
// run ends; Parent is an index into the same slice (-1 for the root
// span of an op) and every span of one op shares its Op number.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer records spans while on; off, begin and end cost a branch.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // innermost open span
	op    int32
	on    bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.cur, Op: t.op, Start: int64(time.Since(t.t0))})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.cur = t.spans[i].Parent
}

// selfTimes returns every span's duration minus the part its children
// cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// stageTimes sums, per op, the durations of its spans by name, in µs:
// one value per op that entered the stage at all.
func stageTimes(spans []span) map[string][]float64 {
	type key struct {
		name string
		op   int32
	}
	perOp := map[key]float64{}
	var order []key
	for _, s := range spans {
		k := key{s.Name, s.Op}
		if _, seen := perOp[k]; !seen {
			order = append(order, k)
		}
		perOp[k] += float64(s.End-s.Start) / 1e3
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], perOp[k])
	}
	return out
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
