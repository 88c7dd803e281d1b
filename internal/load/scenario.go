package load

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Op classes a scenario can mix.  Each maps to one wire-level operation
// shape against the cluster; weights in Scenario.Mix set their relative
// frequency.
const (
	// OpCheckin posts a hierarchy check-in: one BATCH of Batch events
	// ("ckin up <oid>") over random OIDs from the pool — the bulk write
	// path of a design team checking in a subtree.
	OpCheckin = "checkin"

	// OpReport streams a full REPORT — the whole-project read.
	OpReport = "report"

	// OpStorm is the read-your-writes storm: REPORT/GAP pinned to a
	// recently observed primary LSN (ReportAt/GapAt), served by a
	// follower when FollowerReads is set — the MVCC epoch-pinning path.
	OpStorm = "storm"

	// OpChurn is workspace churn: CREATE a fresh version of a random
	// pool block and LINK it to an existing OID — the version-chain and
	// adjacency write path.
	OpChurn = "churn"

	// OpSwap swaps the blueprint mid-traffic (BPSWAP with the server's
	// own current source): a full policy re-compile and atomic index
	// swap under live load.
	OpSwap = "swap"

	// OpState reads one OID's state — the cheap point read.
	OpState = "state"

	// OpQuery runs a graph query (QUERY <lsn> reach) pinned to a recently
	// observed primary LSN, against a follower when FollowerReads is set —
	// the MVCC reachability-index read path.
	OpQuery = "query"
)

// isWriteClass reports the op classes whose latency defines SLO recovery.
func isWriteClass(class string) bool {
	return class == OpCheckin || class == OpChurn
}

// Dur is a time.Duration that marshals as a Go duration string ("15s"),
// the scenario's duration as every LOAD json records it.
type Dur struct{ D time.Duration }

// MarshalJSON implements json.Marshaler.
func (d Dur) MarshalJSON() ([]byte, error) { return json.Marshal(d.D.String()) }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("load: bad duration %q: %w", s, err)
		}
		d.D = v
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("load: bad duration %s", b)
	}
	d.D = time.Duration(ns)
	return nil
}

// SLO declares the latency contract a run is held to: per-op-class p99
// ceilings.
type SLO struct {
	// P99Ms maps op class → p99 ceiling in milliseconds.  Classes not
	// listed are unconstrained.
	P99Ms map[string]float64 `json:"p99_ms,omitempty"`
}

// Scenario is the spec of one load run — the single source of truth the
// CLI, the CI smoke lane and the soak test all express their workloads in,
// so they cannot drift apart.
type Scenario struct {
	Name string `json:"name"`

	// Seed drives every random choice (op pick, target pick) so a run is
	// reproducible given the same cluster.
	Seed int64 `json:"seed"`

	// Rate is the open-loop arrival rate in ops/sec, held for Duration.
	Rate     float64 `json:"rate"`
	Duration Dur     `json:"duration"`

	// Workers is the virtual-user pool size: concurrent connections
	// executing ops.  Arrivals keep their intended times even when every
	// worker is busy — the pool never stalls the clock.
	Workers int `json:"workers"`

	// Mix weights the op classes (see Op* constants); a class absent or
	// ≤ 0 never fires.
	Mix map[string]int `json:"mix"`

	// Blocks sizes the pre-created OID pool the read/checkin classes
	// target (default 24).
	Blocks int `json:"blocks,omitempty"`

	// Batch is the events-per-BATCH of a checkin (default 8).
	Batch int `json:"batch,omitempty"`

	// FollowerReads routes report/storm reads round-robin across the
	// follower fleet instead of the primary.
	FollowerReads bool `json:"follower_reads,omitempty"`

	// SLO is the latency contract (optional).
	SLO *SLO `json:"slo,omitempty"`
}

// withDefaults fills the optional knobs.
func (s Scenario) withDefaults() Scenario {
	if s.Workers <= 0 {
		s.Workers = 8
	}
	if s.Blocks <= 0 {
		s.Blocks = 24
	}
	if s.Batch <= 0 {
		s.Batch = 8
	}
	return s
}

// backlog bounds the dispatched-but-not-started queue; past it, arrivals
// are counted as dropped: four seconds of arrivals, at least 1024.
func (s Scenario) backlog() int {
	return max(int(4*s.Rate), 1024)
}

// validate rejects specs the runner cannot execute.
func (s Scenario) validate() error {
	if s.Rate <= 0 || s.Duration.D <= 0 {
		return fmt.Errorf("load: scenario %q: rate and duration must be positive", s.Name)
	}
	total := 0
	for class, w := range s.Mix {
		switch class {
		case OpCheckin, OpReport, OpStorm, OpChurn, OpSwap, OpState, OpQuery:
		default:
			return fmt.Errorf("load: scenario %q: unknown op class %q", s.Name, class)
		}
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return fmt.Errorf("load: scenario %q: mix has no positive weights", s.Name)
	}
	return nil
}

// mixTable flattens the weighted mix into a cumulative table for O(log n)
// deterministic picks; classes iterate sorted so the same seed always
// yields the same op sequence.
type mixTable struct {
	classes []string
	cum     []int
	total   int
}

func newMixTable(mix map[string]int) mixTable {
	classes := make([]string, 0, len(mix))
	for c, w := range mix {
		if w > 0 {
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	t := mixTable{classes: classes}
	for _, c := range classes {
		t.total += mix[c]
		t.cum = append(t.cum, t.total)
	}
	return t
}

func (t mixTable) pick(r int) string {
	r = r % t.total
	i := sort.SearchInts(t.cum, r+1)
	return t.classes[i]
}

// Preset returns a built-in scenario by name:
//
//   - "smoke": the CI load lane — low-rate, short, single-core-honest
//     mixed traffic with follower storm reads.
//   - "soak": the soak-test workload — longer, write-heavy, with
//     periodic swaps, expressed here so the soak and the harness share
//     one spec.
func Preset(name string) (Scenario, error) {
	switch name {
	case "smoke":
		return Scenario{
			Name:     "smoke",
			Seed:     1,
			Rate:     120,
			Duration: Dur{8 * time.Second},
			Workers:  6,
			Blocks:   16,
			Batch:    4,
			Mix: map[string]int{
				OpCheckin: 30, OpReport: 10, OpStorm: 15,
				OpChurn: 20, OpState: 20, OpQuery: 5,
			},
			FollowerReads: true,
			SLO:           &SLO{P99Ms: map[string]float64{OpState: 250, OpStorm: 400}},
		}, nil
	case "soak":
		return Scenario{
			Name:     "soak",
			Seed:     20240612,
			Rate:     150,
			Duration: Dur{12 * time.Second},
			Workers:  8,
			Blocks:   20,
			Batch:    6,
			Mix: map[string]int{
				OpCheckin: 35, OpReport: 8, OpStorm: 12,
				OpChurn: 30, OpSwap: 1, OpState: 14,
			},
		}, nil
	}
	return Scenario{}, fmt.Errorf("load: unknown preset %q (smoke, soak)", name)
}
