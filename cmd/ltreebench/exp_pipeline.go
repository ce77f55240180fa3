package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/ltree-db/ltree/internal/core"
	"github.com/ltree-db/ltree/internal/document"
	"github.com/ltree-db/ltree/internal/index"
	"github.com/ltree-db/ltree/internal/query"
	"github.com/ltree-db/ltree/internal/stats"
)

// expPipeline measures what the lazy cursor pipeline buys on deep paths:
// intermediate memory and time-to-first-result. Both evaluators run over
// the same chunked index version; they differ only in evaluation
// strategy — the materialized PR-3 join allocates every step's result
// set, the cursor pipeline keeps one ancestor stack per step (O(depth)).
//
// The sweep crosses path depth (4–8 child steps) with branch fan-out
// (how many matches the unselective path produces), so "alloc per query"
// is read along a row to see growth in the result-set size. The
// ISSUE-4 acceptance criteria pin: lazy intermediate allocations stay
// flat across result-set size while the materialized baseline grows
// linearly, and first-result latency on a selective deep path improves
// measurably.
func expPipeline(c config) {
	depths := []int{4, 6, 8}
	widths := c.sizes([]int{10, 100, 1000})
	if c.quick {
		depths = []int{4, 6}
		widths = c.sizes([]int{10, 100})
	}

	fmt.Println("deep rooted child chains, unselective path (matches every branch leaf)")
	fmt.Println("eager = JoinMaterialized (PR-3), lazy = cursor pipeline (JoinCursor); same chunked index")
	fmt.Println()
	tbl := stats.NewTable(os.Stdout,
		"depth", "width", "results", "eager µs", "lazy µs", "eager B/q", "lazy B/q")

	// alloc growth across the widest sweep, per depth: the headline claim.
	type growth struct{ eager, lazy float64 }
	grow := map[int]growth{}
	for _, depth := range depths {
		var eagerLo, eagerHi, lazyLo, lazyHi float64
		for wi, width := range widths {
			d, ix, err := pipelineDoc(depth, width)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			p, err := query.Parse(pipelinePath(depth, "leaf"))
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			iters := 40000 / width
			if iters < 8 {
				iters = 8
			}
			nres := len(query.JoinMaterialized(d, ix, p))
			eagerNS, eagerB := measureEval(iters, func() {
				query.JoinMaterialized(d, ix, p)
			})
			lazyNS, lazyB := measureEval(iters, func() {
				cur := query.JoinCursor(ix, p)
				for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				}
			})
			tbl.Row(float64(depth), float64(width), float64(nres),
				eagerNS/1e3, lazyNS/1e3, eagerB, lazyB)
			if wi == 0 {
				eagerLo, lazyLo = eagerB, lazyB
			}
			if wi == len(widths)-1 {
				eagerHi, lazyHi = eagerB, lazyB
			}
		}
		grow[depth] = growth{eager: eagerHi / eagerLo, lazy: lazyHi / lazyLo}
	}
	tbl.Flush()
	fmt.Println()

	widest := float64(widths[len(widths)-1]) / float64(widths[0])
	worstLazy, worstEager := 0.0, widest
	for _, depth := range depths {
		g := grow[depth]
		if g.lazy > worstLazy {
			worstLazy = g.lazy
		}
		if g.eager < worstEager {
			worstEager = g.eager
		}
	}
	verdict(worstLazy <= 3,
		fmt.Sprintf("lazy intermediate allocations flat across a %.0f× result-set sweep (worst growth %.2f×)",
			widest, worstLazy))
	verdict(worstEager >= 3*worstLazy,
		fmt.Sprintf("materialized baseline grows with the result set (worst-case eager %.1f× vs lazy %.2f×)",
			worstEager, worstLazy))

	// Selective deep path: one branch in the whole document ends in the
	// rare tag, so the full answer is a single element. The lazy pipeline
	// surfaces it without evaluating anything else to completion; the
	// materialized join must finish every step first.
	fmt.Println()
	fmt.Println("selective path (1 match): time to FIRST result")
	tbl2 := stats.NewTable(os.Stdout, "depth", "width", "eager-full µs", "lazy-first µs", "speedup")
	worstSpeedup := 1e18
	for _, depth := range depths {
		width := widths[len(widths)-1]
		d, ix, err := pipelineDoc(depth, width)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		p, err := query.Parse(pipelinePath(depth, "rare"))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		iters := 40000 / width
		if iters < 8 {
			iters = 8
		}
		eagerNS, _ := measureEval(iters, func() {
			query.JoinMaterialized(d, ix, p)
		})
		lazyNS, _ := measureEval(iters, func() {
			if _, ok := query.JoinCursor(ix, p).Next(); !ok {
				panic("selective path lost its match")
			}
		})
		speedup := eagerNS / lazyNS
		if speedup < worstSpeedup {
			worstSpeedup = speedup
		}
		tbl2.Row(float64(depth), float64(width), eagerNS/1e3, lazyNS/1e3, speedup)
	}
	tbl2.Flush()
	fmt.Println()
	verdict(worstSpeedup > 1.5,
		fmt.Sprintf("first result on a selective deep path beats materialized evaluation (worst %.1f×)", worstSpeedup))
	fmt.Println("(the lazy pipeline holds one O(document-depth) ancestor stack per step and streams")
	fmt.Println(" matches as the merge discovers them; the materialized join allocates every step's")
	fmt.Println(" full result set before the first match is visible — see DESIGN.md §3.4.)")
}

// pipelineDoc builds a root with width branches, each a chain
// l1/l2/…/l<depth> ending in a <leaf/>; the middle branch's chain ends in
// an extra <rare/> (the selective target). Returns the labeled document
// and a default-chunked index version over it.
func pipelineDoc(depth, width int) (*document.Doc, query.Index, error) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for b := 0; b < width; b++ {
		for l := 1; l <= depth; l++ {
			fmt.Fprintf(&sb, "<l%d>", l)
		}
		sb.WriteString("<leaf/>")
		if b == width/2 {
			sb.WriteString("<rare/>")
		}
		for l := depth; l >= 1; l-- {
			fmt.Fprintf(&sb, "</l%d>", l)
		}
	}
	sb.WriteString("</root>")
	d, err := document.Parse(strings.NewReader(sb.String()), core.Params{F: 8, S: 2})
	if err != nil {
		return nil, nil, err
	}
	return d, index.Build(d), nil
}

// pipelinePath renders the rooted child chain /root/l1/…/l<depth>/<last>.
func pipelinePath(depth int, last string) string {
	var sb strings.Builder
	sb.WriteString("/root")
	for l := 1; l <= depth; l++ {
		fmt.Fprintf(&sb, "/l%d", l)
	}
	sb.WriteString("/")
	sb.WriteString(last)
	return sb.String()
}

// measureEval times fn over iters runs and reports (mean ns, mean heap
// bytes allocated per run). TotalAlloc is monotonic, so the delta is
// unaffected by GC; the explicit GC beforehand settles the heap so
// neither evaluator pays the other's garbage. One warmup run keeps
// first-touch costs (cold caches, lazily grown runtime state) out of the
// per-query numbers; a rooted anchor has no per-version work left to
// amortize, since the "*" stream it reads is a lazy merge of tag cursors.
func measureEval(iters int, fn func()) (nsPerOp, bytesPerOp float64) {
	fn()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(iters),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
}
