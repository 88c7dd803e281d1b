package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Spec is the part of BENCHMARK.json the benchmark itself reads: which
// workloads and metrics it has promised, and the bound on each.
type Spec struct {
	Workloads []SpecLoad   `json:"workloads"`
	EndToEnd  []SpecMetric `json:"end_to_end"`
	PerLayer  []SpecMetric `json:"per_layer"`
}

type SpecLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Report is what a full run writes: the runner's facts and every run.
type Report struct {
	Runner map[string]any `json:"runner"`
	Runs   []*RunResult   `json:"runs"`
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdict of one (workload, metric) pairing.
type Verdict string

const (
	Worse      Verdict = "worse"
	Same       Verdict = "same"
	Better     Verdict = "better"
	Unresolved Verdict = "unresolved"
)

// spread is the run-to-run width of a sample as a share of its median:
// the distance between the quartiles with four or more runs, the whole
// range with two or three, nothing with one.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / med
}

// quartiles of an ascending sample, by the rule Python's
// statistics.quantiles(v, n=4) uses (exclusive method).
func quartiles(s []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// judge compares the change's values to the base's under a relative bound:
// worse or better when the medians differ by more than bound x the base
// median, unresolved when either side's own spread is wider than the
// bound, same otherwise.
func judge(base, change []float64, lowerIsBetter bool, bound float64) (Verdict, float64) {
	b, c := median(base), median(change)
	if b == 0 {
		if c == 0 {
			return Same, 0
		}
		return Unresolved, 0
	}
	rel := (c - b) / b
	if !lowerIsBetter {
		rel = -rel
	}
	// rel > 0 now means the change is worse, whichever way the metric runs.
	if spread(base) > bound || spread(change) > bound {
		return Unresolved, rel
	}
	switch {
	case rel > bound:
		return Worse, rel
	case rel < -bound:
		return Better, rel
	}
	return Same, rel
}

// failSlack is how far the share of failed operations may rise, in
// percentage points, and retrySlack how far the repeated loads and attempts
// per run, before -compare calls the change worse.  Both are above 0
// because the seed itself degrades a node now and then (README.md,
// defect 3): one refused write in a run of 60,000, or one repeated load in
// five runs, on the change's side is not the change's doing.
const (
	failSlack  = 0.5
	retrySlack = 0.5
)

// compare prints one row per (workload, end-to-end metric) of base against
// change and returns false if any row is worse, if the change failed more
// of its operations or repeated more loads and attempts than the base by
// more than the slack, or if more of its runs failed a correctness check.
func compare(spec *Spec, base, change *Report, out io.Writer) bool {
	ok := true
	values := func(r *Report, wl, metric string) []float64 {
		var v []float64
		for _, run := range r.Runs {
			if m, found := run.EndToEnd[metric]; found && run.Workload == wl {
				v = append(v, m.Value)
			}
		}
		return v
	}
	// health returns the percentage of attempted operations that failed,
	// the loads and attempts repeated per run, and the runs that failed a
	// correctness check, over the n runs of wl.
	health := func(r *Report, wl string) (failPct, retries float64, incorrect, n int) {
		var failed, attempted int64
		for _, run := range r.Runs {
			if run.Workload == wl {
				failed += run.Failed
				attempted += run.Attempted
				retries += float64(run.Retries)
				n++
				if !run.Correct {
					incorrect++
				}
			}
		}
		return 100 * per(float64(failed), float64(attempted)), per(retries, float64(n)), incorrect, n
	}
	fmt.Fprintf(out, "%-9s %-16s %-10s %14s %14s %9s %7s  %s\n", "workload", "metric", "verdict", "base median", "change median", "change", "bound", "runs")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := values(base, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(out, "%-9s %-16s %-10s %14s %14s\n", wl.Name, m.Name, Unresolved, "missing", "missing")
				ok = false
				continue
			}
			v, rel := judge(b, c, m.Better == "lower", m.Bound)
			if v == Worse {
				ok = false
			}
			// rel is signed so that + is worse; print it as the plain
			// relative change of the value against the base median.
			shown := rel
			if m.Better != "lower" {
				shown = -rel
			}
			fmt.Fprintf(out, "%-9s %-16s %-10s %14.5g %14.5g %+8.1f%% %6.1f%%  %d vs %d (%s, base %.5g)\n",
				wl.Name, m.Name, v, median(b), median(c), 100*shown, 100*m.Bound, len(b), len(c), m.Unit, median(b))
		}
		fb, rb, ib, nb := health(base, wl.Name)
		fc, rc, ic, nc := health(change, wl.Name)
		for _, row := range []struct {
			name         string
			base, change float64
			slack        float64
			of           string
		}{
			{"fail_pct", fb, fc, failSlack, "% of attempted, may rise by 0.5 points"},
			{"retries", rb, rc, retrySlack, "repeated loads and attempts per run, may rise by 0.5"},
			{"incorrect_runs", float64(ib), float64(ic), 0, "runs that failed a check"},
		} {
			verdict := Same
			if row.change > row.base+row.slack {
				verdict = Worse
				ok = false
			}
			fmt.Fprintf(out, "%-9s %-16s %-10s %14.5g %14.5g %9s %7s  %d vs %d (%s)\n", wl.Name, row.name, verdict, row.base, row.change, "", "", nb, nc, row.of)
		}
	}
	return ok
}
