package repro

// Supplementary benchmarks for subsystems added beyond the paper's core:
// state reporting at scale, time-travel configurations, design tasks, and
// the visualization renderers.

import (
	"fmt"
	"testing"

	"repro/internal/flow"
	"repro/internal/task"
	"repro/internal/viz"
	"repro/internal/wrapper"
)

// BenchmarkStateReport measures the designer's project-state query across
// database sizes: n blocks, each with an unready schematic.
func BenchmarkStateReport(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			proj := mustProject(b, EDTCExample)
			for i := 0; i < n; i++ {
				if _, err := proj.Engine.CreateOID(fmt.Sprintf("blk%04d", i), "schematic", "bench"); err != nil {
					b.Fatal(err)
				}
			}
			if err := proj.Engine.Drain(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := Report(proj.DB, proj.Blueprint)
				if len(rep) != n {
					b.Fatal(len(rep))
				}
			}
		})
	}
}

// BenchmarkSnapshotAsOf measures historical configuration reconstruction
// over a database with deep version history.
func BenchmarkSnapshotAsOf(b *testing.B) {
	proj := mustProject(b, EDTCExample)
	const blocks, versions = 50, 20
	for i := 0; i < blocks; i++ {
		for v := 0; v < versions; v++ {
			if _, err := proj.Engine.CreateOID(fmt.Sprintf("blk%03d", i), "schematic", "bench"); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := proj.Engine.Drain(); err != nil {
		b.Fatal(err)
	}
	mid := proj.DB.Seq() / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("asof%d", i)
		c, err := proj.DB.SnapshotAsOf(name, mid)
		if err != nil {
			b.Fatal(err)
		}
		if len(c.OIDs) == 0 {
			b.Fatal("empty snapshot")
		}
		if err := proj.DB.DeleteConfiguration(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskRun measures the design-task layer overhead around a
// trivial step: tracking OID creation, status updates, and the four task
// events.
func BenchmarkTaskRun(b *testing.B) {
	sess, _, err := flow.NewEDTCSession(9)
	if err != nil {
		b.Fatal(err)
	}
	runner := task.NewRunner(sess)
	noop := task.Task{Name: "noop", Steps: []task.Step{{
		Name: "s",
		Run:  func(*wrapper.Session) error { return nil },
	}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := runner.Run(noop)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Status != "done" {
			b.Fatal(rec.Status)
		}
	}
}

// BenchmarkVizRenderers measures the DOT renderers on the scenario
// database.
func BenchmarkVizRenderers(b *testing.B) {
	sess, _, err := flow.NewEDTCSession(3)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := flow.RunEDTCScenario(sess); err != nil {
		b.Fatal(err)
	}
	db, bp := sess.Eng.DB(), sess.Eng.Blueprint()
	b.Run("flow-dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := viz.FlowDOT(bp); len(out) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("state-dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := db.ReadView()
			out := viz.StateDOT(v, bp)
			v.Close()
			if len(out) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkDSMScenario runs the second bundled methodology end to end.
func BenchmarkDSMScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := flow.RunDSMScenario(); err != nil {
			b.Fatal(err)
		}
	}
}
