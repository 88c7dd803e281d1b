package main

import "time"

// Workload is one traffic mix against one cluster shape.
type Workload struct {
	Name  string
	Trees int
	Mix   Mix

	Fsync bool // -fsync on every node
	Ack   int  // -ack on the primary
	// Follower attaches one follower.  All writes then share one connection:
	// on the seed, records that a second connection buffers while a commit
	// is rotating the segment end up in a segment named after the wrong LSN,
	// and the follower's stream stops there (README.md, defect 2).
	Follower bool
	// ReadsOnFollower sends every point read and scan to the follower.
	ReadsOnFollower bool

	// CruiseRate is the open-loop rate in ops/s and Limit the latency limit
	// of every op.  Both are frozen: calibrated once on the seed commit —
	// cruise = 25 % of the seed's mean sat rate to two significant digits,
	// limit = 3x the largest cruise p99 of any type in any of the seed's
	// calibration runs, rounded up to a 1-2-5 step, so that the machine's
	// own stalls stay inside it; README.md has the numbers — and never
	// re-derived at run time, so a later commit is measured at the same
	// offered load and against the same limit.
	CruiseRate float64
	Limit      time.Duration
}

// Class order: post, batch, tool, churn, state, query, scan.
var checkinMix = Mix{50, 15, 15, 5, 15, 0, 0}

var workloads = []Workload{
	{
		// Journal is a buffer write and nobody waits: wire, server, engine and meta do the work.
		Name:  "checkin",
		Trees: 16, Mix: checkinMix,
		CruiseRate: 2100,
		Limit:      500 * time.Millisecond,
	},
	{
		// Same ops as checkin, but every ack waits for fsync and a follower: journal commit and replica quorum dominate.
		Name:  "durable",
		Trees: 16, Mix: checkinMix,
		Fsync: true, Ack: 1, Follower: true,
		CruiseRate: 200,
		Limit:      2 * time.Second,
	},
	{
		// Scans cost hundreds of posts: state evaluation, meta view walks and response encoding own the CPU.
		Name:  "report",
		Trees: 64, Mix: Mix{15, 0, 5, 0, 25, 15, 40},
		CruiseRate: 62,
		Limit:      500 * time.Millisecond,
	},
	{
		// Writes on the primary, reads on a follower pinned at the acked LSN: meta mutate+publish vs pin+walk, replica apply on the read path.
		Name:  "mixed",
		Trees: 32, Mix: Mix{30, 10, 10, 5, 20, 10, 15},
		Follower: true, ReadsOnFollower: true,
		CruiseRate: 160,
		Limit:      500 * time.Millisecond,
	},
}

func workloadByName(name string) *Workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
