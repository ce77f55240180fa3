// Command bench is the repository's yardstick: one end-to-end benchmark
// through real ltreed processes over HTTP, plus one traced in-process
// run that attributes the same op stream to the layers. See README.md.
//
//	go run ./bench                      every workload, end to end + traced
//	go run ./bench -workload read_only  one workload (the BENCHMARK.json form)
//	go run ./bench -quick               seconds, not minutes (what go test runs)
//	go run ./bench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	stop()
	os.Exit(code)
}

// environment is written into every result, so a number can never be
// read without the machine it was taken on.
type environment struct {
	Commit      string `json:"commit"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	FSType      string `json:"fs_type"`
	FsyncReal   bool   `json:"fsync_real"`
	Clients     int    `json:"clients"`
	LoadModel   string `json:"load_model"`
	FlushPolicy string `json:"flush_policy"`
}

func describeEnv(root, workDir string, clients int) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fs, real := fsType(workDir)
	return environment{
		Commit: commit, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		FSType: fs, FsyncReal: real, Clients: clients,
		LoadModel:   fmt.Sprintf("closed loop, %d client(s), one keep-alive connection each", clients),
		FlushPolicy: "ltreed default: fsync every commit, AutoCheckpoint(4 MiB, 16384 records)",
	}
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Why      string      `json:"why"`
	HTTP     *httpResult `json:"http,omitempty"`
	PerLayer metrics     `json:"per_layer,omitempty"`
	Traced   *tracedInfo `json:"traced,omitempty"`
}

// result is bench/out/result.json, and the input of -compare.
type result struct {
	Env       environment                `json:"environment"`
	Seed      int64                      `json:"seed"`
	Scale     int                        `json:"scale"`
	WindowS   float64                    `json:"window_s"`
	TracedOps int                        `json:"traced_ops"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// contractLine is the last line of standard output in the
// BENCHMARK.json form.
type contractLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run is main without the process: flags in, report on out, exit code
// back. Tests call it directly.
func run(ctx context.Context, args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all four, end to end and traced)")
		seed         = fs.Int64("seed", 1, "the only source of randomness: corpus and op streams are functions of it")
		seconds      = fs.Int("seconds", 30, "measured window per workload, in seconds")
		trace        = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of the traced run")
		quick        = fs.Bool("quick", false, "scale 100, 1 s windows, 256 traced ops")
		runs         = fs.Int("runs", 1, "repeat each workload's end-to-end run with seeds seed, seed+1, …; result.json then carries the spread -compare needs")
		outDir       = fs.String("out", "", "where result.json and trace-<workload>.json go (default bench/out)")
		compare      = fs.Bool("compare", false, "compare two result.json files: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two result files: old.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), out)
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	opt := runOpts{
		seed: *seed, scale: 2000, window: time.Duration(*seconds) * time.Second, warm: 2 * time.Second,
		probe: 2 * time.Second, clients: min(runtime.NumCPU(), maxClients), tracedOps: 8192,
	}
	switch {
	case *quick:
		opt.scale, opt.window, opt.warm, opt.probe, opt.tracedOps = 100, time.Second, 100*time.Millisecond, 100*time.Millisecond, 256
	case *workloadName != "":
		opt.tracedOps = 1024 // the driver caps this form's run time
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workloadSpec{w}
	}
	// The -trace 0 form reports only the end-to-end metrics.
	doTrace := *workloadName == "" || *trace != 0

	root, err := repoRoot()
	if err != nil {
		return 1, err
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 1, err
	}
	// Everything transient — the ltreed binary, seed files, WALs — lives
	// in one directory that is removed however the run ends.
	workDir, err := os.MkdirTemp(*outDir, "work-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(workDir)

	res := &result{Env: describeEnv(root, workDir, opt.clients), Seed: opt.seed, Scale: opt.scale,
		WindowS: opt.window.Seconds(), TracedOps: opt.tracedOps, Workloads: map[string]*workloadResult{}}
	bin, err := buildLtreed(root)
	if err != nil {
		return 1, err
	}

	attempted, failed := 0, 0
	for _, w := range selected {
		wr := &workloadResult{Why: w.why}
		res.Workloads[w.name] = wr
		dir := filepath.Join(workDir, w.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 1, err
		}
		hopt := opt
		if doTrace && *workloadName != "" {
			// The -trace 1 form needs the HTTP run only for the ltreed.*
			// layer figures; a third of the window is enough.
			hopt.window = opt.window / 3
		}
		var reps []*httpResult
		for i := 0; i < max(*runs, 1); i++ {
			r, err := httpRun(ctx, bin, dir, w, hopt)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			reps = append(reps, r)
			hopt.seed++
		}
		wr.HTTP = mergeRuns(reps)
		attempted += wr.HTTP.Attempted
		failed += wr.HTTP.Failed
		if doTrace {
			tr, err := tracedRun(dir, w, opt)
			if err != nil {
				return 1, fmt.Errorf("%s traced: %w", w.name, err)
			}
			wr.Traced, wr.PerLayer = &tr.info, tr.metrics(wr.HTTP)
			attempted += tr.info.Ops
			failed += len(tr.info.Failures)
			if err := tr.writeSpans(filepath.Join(*outDir, "trace-"+w.name+".json")); err != nil {
				return 1, err
			}
		}
		os.RemoveAll(dir)
		if ctx.Err() != nil {
			return 1, ctx.Err()
		}
	}
	correct := failed == 0

	report(out, res)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(filepath.Join(*outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	if *workloadName != "" {
		wr := res.Workloads[*workloadName]
		line := contractLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics{}}
		defs, src := endToEnd, wr.HTTP.EndToEnd
		if doTrace {
			defs, src = perLayer, wr.PerLayer
		}
		for _, d := range defs {
			m, ok := src[d.Name]
			if !ok {
				return 1, fmt.Errorf("metric %s was not measured", d.Name)
			}
			line.Metrics[d.Name] = measurement{Value: m.Value, Unit: m.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "%s\n", data)
	}
	if !correct {
		return 1, fmt.Errorf("%d of %d operations or checks failed", failed, attempted)
	}
	return 0, nil
}

// report prints every metric by name with its unit, one workload after
// the other.
func report(out io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(out, "commit %s · %d cpu · GOMAXPROCS %d · %s · fs %s (fsync_real=%v)\n", e.Commit, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.FSType, e.FsyncReal)
	fmt.Fprintf(out, "%s · %s\n", e.LoadModel, e.FlushPolicy)
	fmt.Fprintf(out, "seed %d · XMarkLite scale %d · window %gs · traced ops %d\n", res.Seed, res.Scale, res.WindowS, res.TracedOps)
	names := make([]string, 0, len(res.Workloads))
	for _, w := range workloads {
		if _, ok := res.Workloads[w.name]; ok {
			names = append(names, w.name)
		}
	}
	row := func(name string, m measurement) {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(out, "  %-36s %14.4f %-6s %s\n", name, m.Value, m.Unit, n)
	}
	for _, name := range names {
		wr := res.Workloads[name]
		fmt.Fprintf(out, "\n== %s — %s\n", name, wr.Why)
		if h := wr.HTTP; h != nil {
			for _, d := range endToEnd {
				row(d.Name, h.EndToEnd[d.Name])
			}
			frac := 0.0
			if h.Attempted > 0 {
				frac = float64(h.Failed) / float64(h.Attempted)
			}
			row("failed_frac", measurement{Value: frac, Unit: "frac", Samples: h.Attempted})
			keys := make([]string, 0, len(h.Checks))
			for k := range h.Checks {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(out, "  check %-30s %v\n", k, h.Checks[k])
			}
			for _, f := range h.Failures {
				fmt.Fprintf(out, "  FAILED %s\n", f)
			}
		}
		if wr.PerLayer != nil {
			for _, d := range perLayer {
				row(d.Name, wr.PerLayer[d.Name])
			}
			for _, f := range wr.Traced.Failures {
				fmt.Fprintf(out, "  FAILED %s\n", f)
			}
		}
	}
}
