package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so the
// spread printed here is the one a driver using that function computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median; 0 when
// fewer than two runs are known.
func spread(runs []float64) float64 {
	if len(runs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(runs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runsOf returns the per-repeat values of a metric, or its single value
// when the file holds one run.
func runsOf(h *httpResult, name string) []float64 {
	if rs := h.Runs[name]; len(rs) > 0 {
		return rs
	}
	return []float64{h.EndToEnd[name].Value}
}

// verdict judges one (workload, metric) pair by the rule of the
// choosing-metrics guide: worse than the bound is a regression, unless
// the runs scatter more than the bound, when the pair is unresolved —
// except that every new run beating every old one settles it.
func verdict(d metricDef, old, new []float64) (delta, spr float64, v string) {
	om, nm := median(old), median(new)
	if om == 0 {
		return 0, 0, "n/a"
	}
	delta = (nm - om) / om
	worse := delta
	better := func(a, b float64) bool { return a < b }
	if d.Better == "higher" {
		worse = -delta
		better = func(a, b float64) bool { return a > b }
	}
	spr = max(spread(old), spread(new))
	switch {
	case spr > d.Bound:
		if better(slices.MaxFunc(new, cmpWorse(better)), slices.MinFunc(old, cmpWorse(better))) {
			return delta, spr, "ok (every run better)"
		}
		return delta, spr, "unresolved"
	case worse > d.Bound:
		return delta, spr, "REGRESSION"
	}
	return delta, spr, "ok"
}

// cmpWorse orders values from best to worst, so MaxFunc is the worst
// run and MinFunc the best.
func cmpWorse(better func(a, b float64) bool) func(a, b float64) int {
	return func(a, b float64) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	}
}

// compareFiles prints one row per (workload, metric) with the delta
// against the metric's own bound and returns exit code 1 on any
// regression.
func compareFiles(oldPath, newPath string, out io.Writer) (int, error) {
	old, err := loadResult(oldPath)
	if err != nil {
		return 2, err
	}
	new, err := loadResult(newPath)
	if err != nil {
		return 2, err
	}
	if old.Scale != new.Scale || old.WindowS != new.WindowS {
		fmt.Fprintf(out, "warning: settings differ (scale %d vs %d, window %gs vs %gs): fixed time and size on both sides is the rule\n",
			old.Scale, new.Scale, old.WindowS, new.WindowS)
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tdelta\tbound\tspread\tverdict")
	regressions := 0
	for _, w := range workloads {
		o, n := old.Workloads[w.name], new.Workloads[w.name]
		if o == nil || n == nil || o.HTTP == nil || n.HTTP == nil {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t\t\tmissing from one side\n", w.name)
			continue
		}
		for _, d := range endToEnd {
			or, nr := runsOf(o.HTTP, d.Name), runsOf(n.HTTP, d.Name)
			delta, spr, v := verdict(d, or, nr)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				w.name, d.Name, median(or), median(nr), d.Unit, 100*delta, 100*d.Bound, 100*spr, v)
		}
		// failed_frac has no tolerance: any increase is a regression.
		of, nf := failedFrac(o.HTTP), failedFrac(n.HTTP)
		v := "ok"
		if nf > of {
			v = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.4g\t%.4g\tfrac\t\tno increase\t\t%s\n", w.name, of, nf, v)
	}
	tw.Flush()
	if regressions > 0 {
		return 1, fmt.Errorf("%d regression(s) against %s", regressions, oldPath)
	}
	return 0, nil
}

func failedFrac(h *httpResult) float64 {
	if h.Attempted == 0 {
		return 0
	}
	return float64(h.Failed) / float64(h.Attempted)
}
