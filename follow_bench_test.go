package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/replica"
	"repro/internal/server"
)

// catchUpRecords is the history a follower catches up on per op.
const catchUpRecords = 10_000

// BenchmarkFollowerCatchUp measures the follower side of replication: a
// cold follower catching up on 10,000 records a primary's check-ins wrote —
// ckin down on the schematic of HDL_model → schematic → netlist chains and
// hdl_sim results that flip, the event and property-update records the
// checkin workload journals — over
// loopback FOLLOW, each applied and appended to the follower's own journal.
// One op is one catch-up; B/record and allocs/record are the follower's
// (and the serving tail's) cost per record.
func BenchmarkFollowerCatchUp(b *testing.B) {
	w, db, err := journal.Open(b.TempDir(), journal.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Abort()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(db, bp, engine.WithJournal(w))
	if err != nil {
		b.Fatal(err)
	}
	var chains [][]meta.Key
	for i := 0; i < 16; i++ {
		var chain []meta.Key
		for _, view := range []string{"HDL_model", "schematic", "netlist"} {
			k, err := eng.CreateOID(fmt.Sprintf("B%d", i), view, "bench")
			if err != nil {
				b.Fatal(err)
			}
			chain = append(chain, k)
		}
		for j := 1; j < len(chain); j++ {
			if _, err := eng.CreateLink(meta.DeriveLink, chain[j-1], chain[j]); err != nil {
				b.Fatal(err)
			}
		}
		chains = append(chains, chain)
	}
	for round := 0; w.LastLSN() < catchUpRecords; round++ {
		result := [...]string{"good", "bad"}[round%2]
		for _, c := range chains {
			for _, ev := range []engine.Event{
				{Name: "hdl_sim", Dir: bpl.DirDown, Target: c[0], Args: []string{result}},
				{Name: engine.EventCheckin, Dir: bpl.DirDown, Target: c[1]},
			} {
				if err := eng.Post(ev); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Commit(); err != nil {
		b.Fatal(err)
	}
	last := w.LastLSN()
	srv := server.New(eng, server.WithJournal(w))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fol, err := replica.Start(b.TempDir(), addr, journal.Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fol.WaitApplied(last, time.Minute); err != nil {
			b.Fatal(err)
		}
		fol.Abort()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	records := float64(b.N) * float64(last)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/records, "B/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
}
