// Command bench is the DAMOCLES benchmark: it builds cmd/damocles from the
// checkout, spawns real server processes on loopback with journal
// directories under .bench_build/, drives four propagating-hierarchy
// workloads against them from one process, and reports end-to-end and
// per-layer metrics.  See README.md.
//
//	bench                                  every workload, every end-to-end metric
//	bench -trace 1                         the same plus the traced run and every per-layer metric
//	bench -workload checkin -seed 7        one workload; the last line of output is one JSON object
//	bench -compare base.json change.json   judge two result files under BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "damocles", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("bench: run from the repository root or from bench/ (cmd/damocles not found)")
}

// runnerFacts stamps a result with what it ran on.
func runnerFacts(root string, workers int) map[string]any {
	facts := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"workers":    workers,
		"go":         runtime.Version(),
		"affinity":   "unknown",
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
				facts["affinity"] = strings.TrimSpace(rest)
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		facts["commit"] = strings.TrimSpace(string(out))
	}
	return facts
}

func printMetrics(title string, m map[string]Metric, samples map[string]int) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	if samples != nil {
		fmt.Printf("  samples: %v\n", samples)
	}
}

// runTolerant is runWorkload, repeated once from scratch if the node
// degraded under the first attempt (errDegraded).  The abandoned attempt is
// not hidden: its ops are added to the result's attempted and failed
// counts, client.retries counts it, and -compare judges both against the
// base's.
func runTolerant(sb *sandbox, wl *Workload, seed uint64, seconds, workers int, logf func(string, ...any)) (*RunResult, error) {
	first, err := runWorkload(sb, wl, seed, seconds, workers, logf)
	if !errors.Is(err, errDegraded) {
		return first, err
	}
	logf("%s: %v after %d ops; running the workload again", wl.Name, err, first.Attempted)
	res, err := runWorkload(sb, wl, seed, seconds, workers, logf)
	if err != nil {
		return nil, err
	}
	res.Retries += 1 + first.Retries
	res.Attempted += first.Attempted
	res.Failed += first.Failed
	res.EndToEnd["fail_pct"] = Metric{100 * per(float64(res.Failed), float64(res.Attempted)), "%"}
	return res, nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "run only this workload; the last line of output is then one JSON object with the metrics")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same op sequence")
	seconds := flag.Int("seconds", 24, "measured seconds per workload (cruise + sat + probes)")
	trace := flag.Int("trace", 0, "1: also do the traced in-process run and report the per-layer metrics")
	runs := flag.Int("runs", 1, "repetitions of each workload, for spread tables")
	out := flag.String("out", "", "write every run as JSON to this file (default <root>/bench/out/result.json)")
	cmp := flag.Bool("compare", false, "compare two result files: bench -compare base.json change.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare base.json change.json")
			return 2
		}
		base, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		change, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if !compare(spec, base, change, os.Stdout) {
			return 1
		}
		return 0
	}
	if *seconds < 2 || *trace < 0 || *trace > 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 2, -trace 0 or 1, -runs at least 1")
		return 2
	}
	todo := workloads
	if *workload != "" {
		wl := workloadByName(*workload)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []Workload{*wl}
	}

	sb, err := newSandbox(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer sb.cleanup()
	if err := sb.buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	// One load connection per CPU and no more: the harness shares the
	// machine with the servers it measures.
	workers := runtime.NumCPU()
	// More Ps than CPUs, so that a worker coming back from its timed sleep
	// never waits for another goroutine to give up a P: with one P per CPU
	// a worker parsing a long REPORT made the other late by milliseconds.
	runtime.GOMAXPROCS(2*workers + 2)
	report := &Report{Runner: runnerFacts(root, workers)}
	report.Runner["seed"] = *seed
	report.Runner["seconds"] = *seconds
	fmt.Printf("runner: %v\n", report.Runner)

	var tcp tcpCost
	if *trace == 1 {
		if tcp, err = tcpCosts(sb); err != nil {
			fmt.Fprintf(os.Stderr, "bench: tcp costs: %v\n", err)
			return 1
		}
	}
	status := 0
	var last *RunResult
	for rep := 0; rep < *runs; rep++ {
		for i := range todo {
			wl := &todo[i]
			res, err := runTolerant(sb, wl, *seed, *seconds, workers, logf)
			if err == nil {
				res.PerLayer["client.retries"] = Metric{float64(res.Retries), "count"}
			}
			if err == nil && *trace == 1 {
				err = traceWorkload(sb, wl, *seed, tcp, res, os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				return 1
			}
			fmt.Printf("%s: seed %d, op sequence %s over %d cruise ops\n", wl.Name, res.Seed, res.OpHash, res.CruiseOps)
			printMetrics("end to end:", res.EndToEnd, res.Samples)
			printMetrics("per layer:", res.PerLayer, nil)
			if !res.Correct {
				status = 1
				fmt.Printf("%s: INVALID, metrics are not to be used:\n", wl.Name)
				for _, e := range res.Errors {
					fmt.Printf("  %s\n", e)
				}
			}
			report.Runs = append(report.Runs, res)
			last = res
		}
	}

	path := *out
	if path == "" {
		path = filepath.Join(root, "bench", "out", "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	data, _ := json.MarshalIndent(report, "", " ")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *workload != "" {
		// The one-line result a driver reads: the metrics BENCHMARK.json
		// lists, end to end with tracing off and per layer with it on.
		want, from := spec.EndToEnd, last.EndToEnd
		if *trace == 1 {
			want, from = spec.PerLayer, last.PerLayer
		}
		metrics := map[string]Metric{}
		for _, m := range want {
			v, ok := from[m.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: metric %s of BENCHMARK.json was not measured\n", m.Name)
				return 1
			}
			metrics[m.Name] = v
		}
		line, _ := json.Marshal(map[string]any{
			"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": metrics,
		})
		fmt.Println(string(line))
	}
	return status
}
