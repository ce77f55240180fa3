// Command ltreebench regenerates every figure and analytic table of the
// paper as a measured experiment (the E1–E13 index of DESIGN.md §4).
//
// Usage:
//
//	ltreebench -exp all            # run everything (default)
//	ltreebench -exp cost -n 200000 # one experiment, custom size
//	ltreebench -quick              # reduced sizes for smoke runs
//
// Output is plain text tables; EXPERIMENTS.md archives a reference run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// experiment is one reproducible unit: id, paper item, and a runner.
type experiment struct {
	id    string
	paper string
	run   func(c config)
}

// config carries the global knobs into experiments.
type config struct {
	quick bool
	n     int // 0 = experiment default
}

var experiments = []experiment{
	{"fig1", "Figure 1: begin/end labeling and containment queries", expFig1},
	{"fig2", "Figure 2: L-Tree bulk load and insertions (f=4, s=2)", expFig2},
	{"cost", "§3.1: amortized update cost vs n, measured vs bound", expCost},
	{"bits", "§3.1: label width vs n, measured vs bound", expBits},
	{"baselines", "§1/§5: L-Tree vs sequential, gap, bisection", expBaselines},
	{"tune", "§3.2 model 1: (f,s) sweep, analytic vs empirical optimum", expTune},
	{"budget", "§3.2 model 2: optimal (f,s) under a bit budget", expBudget},
	{"mix", "§3.2 model 3: combined query+update optimization", expMix},
	{"bulk", "§4.1: amortized cost vs subtree (run) size", expBulk},
	{"virtual", "§4.2: virtual vs materialized L-Tree", expVirtual},
	{"query", "§1: // queries — label self-join vs navigation vs edge joins", expQuery},
	{"props", "Propositions 2–3: structural invariants, measured", expProps},
	{"delete", "§2.3: deletions relabel nothing; compaction", expDelete},
	{"disk", "§3.1 cost unit: simulated disk accesses under an LRU pool", expDisk},
	{"radix", "ablation: tight radix f−1 vs the paper's printed f+1", expRadix},
	{"chunk", "engine: chunked COW posting lists — single-op patch cost vs tag fan-in, flat baseline", expChunk},
	{"pipeline", "engine: lazy cursor pipeline — deep-path intermediate memory + first-result latency vs materialized join", expPipeline},
	{"pushdown", "engine: zig-zag join + chunk-level predicate pushdown — selectivity × depth vs the linear pipeline", expPushdown},
	{"forest", "engine: sharded forest — parallel commit pipelines, parallel recovery, k-way merged drain tax", expForest},
	{"blob", "engine: blob storage tier — async upload commit tax, blob-seeded bootstrap, history beyond released local disk", expBlob},
	{"diff", "engine: hash-pruned version diff — O(changed chunks) walk vs full-fingerprint oracle on a 1%-touched document", expDiff},
}

func main() {
	expFlag := flag.String("exp", "all", "experiment id (all, "+ids()+")")
	quick := flag.Bool("quick", false, "reduced sizes for a fast smoke run")
	n := flag.Int("n", 0, "override the main size parameter (0 = default)")
	requireCPUs := flag.Int("requirecpus", 0, "exit nonzero unless runtime.NumCPU() >= this (CI multicore gate)")
	jsonPath := flag.String("json", "", "also write metrics and verdicts as JSON to this path")
	strict := flag.Bool("strict", false, "exit nonzero if any verdict failed (CI assertion mode)")
	flag.Parse()

	c := config{quick: *quick, n: *n}
	// Every table is CPU-sensitive; print the parallelism up front so no
	// archived run circulates without its hardware context again.
	fmt.Printf("runtime: GOMAXPROCS=%d NumCPU=%d\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	if *requireCPUs > 0 && runtime.NumCPU() < *requireCPUs {
		// The multicore CI lane runs with -requirecpus 2: a table taken on
		// fewer cores than required must fail the job, not get archived as
		// if it measured parallelism.
		fmt.Fprintf(os.Stderr, "requirecpus: NumCPU=%d < required %d — refusing to run\n",
			runtime.NumCPU(), *requireCPUs)
		os.Exit(3)
	}
	want := strings.Split(*expFlag, ",")
	ran := 0
	for _, e := range experiments {
		if *expFlag != "all" && !contains(want, e.id) {
			continue
		}
		fmt.Printf("══ %s — %s\n\n", strings.ToUpper(e.id), e.paper)
		benchCurrentExp = e.id
		e.run(c)
		benchCurrentExp = ""
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: all, %s\n", *expFlag, ids())
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath, c.quick); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("json report: %s\n", *jsonPath)
	}
	if *strict && failedVerdicts > 0 {
		fmt.Fprintf(os.Stderr, "strict: %d verdict(s) failed\n", failedVerdicts)
		os.Exit(4)
	}
}

func ids() string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return strings.Join(out, ", ")
}

func contains(hay []string, needle string) bool {
	for _, h := range hay {
		if strings.TrimSpace(h) == needle {
			return true
		}
	}
	return false
}

// failedVerdicts counts FAIL verdicts across the run; -strict turns a
// nonzero count into a nonzero exit for CI assertion lanes.
var failedVerdicts int

// verdict prints a PASS/FAIL reproduction verdict for a claim and
// mirrors it into the JSON report.
func verdict(ok bool, claim string) {
	mark := "PASS"
	if !ok {
		mark = "FAIL"
		failedVerdicts++
	}
	recordVerdict(ok, claim)
	fmt.Printf("[%s] %s\n", mark, claim)
}

// sizes returns the experiment's n series honoring -quick and -n.
func (c config) sizes(def []int) []int {
	if c.n > 0 {
		return []int{c.n}
	}
	if c.quick {
		out := []int{}
		for _, n := range def {
			if n <= def[0]*10 {
				out = append(out, n)
			}
		}
		if len(out) == 0 {
			out = def[:1]
		}
		return out
	}
	return def
}

// fmtU64s renders a label slice compactly.
func fmtU64s(v []uint64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// sortedKeys returns map keys sorted (for deterministic output).
func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
