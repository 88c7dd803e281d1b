package load

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Facts are the runner-machine facts stamped into every LOAD json
// (and, via scripts/bench.sh, every BENCH_<n>.json): the
// "single-core container" caveat as machine-readable data instead of
// tribal knowledge.  A reader comparing numbers across files checks
// these first.
type Facts struct {
	// GOMAXPROCS is the Go scheduler's parallelism at run time.
	GOMAXPROCS int `json:"gomaxprocs"`

	// NumCPU is what the runtime sees as usable CPUs.
	NumCPU int `json:"numcpu"`

	// Affinity is the size of the process CPU affinity mask
	// (Cpus_allowed_list on Linux; NumCPU where unavailable) — the
	// container quota truth even when the host has more cores.
	Affinity int `json:"affinity"`
}

// RunnerFacts samples the current process's facts.
func RunnerFacts() Facts {
	f := Facts{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Affinity: runtime.NumCPU()}
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
				if n := countCPUList(strings.TrimSpace(rest)); n > 0 {
					f.Affinity = n
				}
				break
			}
		}
	}
	return f
}

// countCPUList counts CPUs in a Linux list like "0-3,7,9-10".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			var a, b int
			if _, err := fmt.Sscanf(lo, "%d", &a); err != nil {
				continue
			}
			if _, err := fmt.Sscanf(hi, "%d", &b); err != nil {
				continue
			}
			if b >= a {
				n += b - a + 1
			}
		} else {
			n++
		}
	}
	return n
}

// OpResult is one op class's measured outcome: latency quantiles from
// the merged histogram (milliseconds, intended-arrival based), counts,
// and sustained throughput.
type OpResult struct {
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	MeanMs     float64 `json:"mean_ms"`
	MaxMs      float64 `json:"max_ms"`
	Throughput float64 `json:"throughput_ops_s"`
}

// ReplicationStats summarizes the lag samples the collector took via
// LSN/ROLE while traffic ran: follower lag is primary-applied minus
// follower-applied (LSN units), journal lag is the primary's applied
// minus its commit watermark.
type ReplicationStats struct {
	Samples        int   `json:"samples"`
	FollowerLagP50 int64 `json:"follower_lag_lsn_p50"`
	FollowerLagP99 int64 `json:"follower_lag_lsn_p99"`
	FollowerLagMax int64 `json:"follower_lag_lsn_max"`
	JournalLagP99  int64 `json:"journal_lag_lsn_p99"`
	JournalLagMax  int64 `json:"journal_lag_lsn_max"`
}

// PartitionResult is the audit of a -partition run: a follower's
// replication link blackholed mid-traffic (both directions silent, no
// connection closed), then healed.  The contract it checks: the dark
// follower's ROLE must report a growing staleness the whole time
// (reads stay age-bounded, never silently stale), writes gated on its
// acks must recover their SLO after the heal, and the fleet must
// converge byte-identically once the link is back.
type PartitionResult struct {
	Enabled  bool   `json:"enabled"`
	Follower string `json:"follower"` // address of the darkened follower

	StartAtMs float64 `json:"start_at_ms"` // blackhole offset into the run
	DarkMs    float64 `json:"dark_ms"`     // blackhole span

	// StalenessSeen reports that every successful ROLE poll of the dark
	// follower carried the staleness field; MaxStalenessMs is the
	// largest age it admitted to — it should approach DarkMs.
	StalenessSeen  bool    `json:"staleness_seen"`
	MaxStalenessMs float64 `json:"max_staleness_ms"`

	// CatchupMs is the span from the heal until the follower's applied
	// LSN caught the primary's; Recovered is false when it never did
	// within the audit budget.
	CatchupMs float64 `json:"catchup_ms"`
	Recovered bool    `json:"recovered"`

	// SLORecoveryMs is the span from the heal until the completion of
	// the last write op violating its SLO ceiling (with -ack gating,
	// writes degrade while the link is dark and must recover after it
	// heals); SLORecovered is false when violations ran into the end of
	// the window.
	SLORecoveryMs float64 `json:"slo_recovery_ms"`
	SLORecovered  bool    `json:"slo_recovered"`

	// Converged reports that the healed follower's REPORT at the final
	// LSN is byte-identical to the primary's.
	Converged bool `json:"converged"`
}

// Result is the full outcome of one load run — the LOAD json document.
type Result struct {
	Name   string   `json:"name"`
	Date   string   `json:"date"`
	Go     string   `json:"go"`
	Commit string   `json:"commit"`
	Runner Facts    `json:"runner"`
	Spec   Scenario `json:"scenario"`

	WallS      float64 `json:"wall_s"`
	Arrivals   int64   `json:"arrivals"`
	Dispatched int64   `json:"dispatched"`
	Dropped    int64   `json:"dropped"`
	Completed  int64   `json:"completed"`
	ErrorsAll  int64   `json:"errors"`

	Ops        map[string]*OpResult `json:"ops"`
	ErrorKinds map[string]int64     `json:"error_kinds,omitempty"`

	// Server is the primary's STATS counter line at the end of the run
	// (engine counters plus the shed/refusal counters), for reconciling
	// client-side accounting against the server's own.
	Server map[string]int64 `json:"server,omitempty"`

	Replication *ReplicationStats `json:"replication,omitempty"`
	Partition   *PartitionResult  `json:"partition,omitempty"`

	// SLOViolations lists op classes whose measured p99 exceeded the
	// scenario's declared ceiling, plus each failed partition audit.
	SLOViolations []string `json:"slo_violations,omitempty"`
}

// Stamp fills the provenance fields — called after the measurement
// window closes so reading git state cannot perturb it.
func (r *Result) Stamp() {
	r.Date = time.Now().UTC().Format(time.RFC3339)
	r.Go = runtime.Version()
	r.Runner = RunnerFacts()
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		r.Commit = strings.TrimSpace(string(out))
	} else {
		r.Commit = "unknown"
	}
}

// WriteJSON writes the result document to path, indented.
func (r *Result) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResult loads a LOAD json document — one this build wrote, or an
// earlier build's, whose fields this build no longer has are skipped.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	return &r, nil
}

// ms converts a duration to float milliseconds for the JSON document.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opResultFrom folds a merged histogram into the JSON form.
func opResultFrom(h *Histogram, errs int64, wall time.Duration) *OpResult {
	r := &OpResult{Count: int64(h.Count()), Errors: errs}
	if h.Count() > 0 {
		r.P50Ms = ms(h.Quantile(0.50))
		r.P90Ms = ms(h.Quantile(0.90))
		r.P99Ms = ms(h.Quantile(0.99))
		r.P999Ms = ms(h.Quantile(0.999))
		r.MeanMs = ms(h.Mean())
		r.MaxMs = ms(h.Max())
	}
	if wall > 0 {
		r.Throughput = float64(r.Count) / wall.Seconds()
	}
	return r
}
