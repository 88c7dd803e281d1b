// Command experiments prints one table per figure of the paper and per
// quantitative claim: it runs each experiment sweep and prints the measured
// series.  The same measurements exist as Go benchmarks (bench_test.go);
// this binary packages them as readable tables.  docs/PACKAGES.md maps each
// experiment to the claim it reproduces and to the packages behind it.
//
// Usage:
//
//	experiments [-exp all|prop|loose|obs|conf|sched|scenario]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/baseline"
	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/meta"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	exp := flag.String("exp", "all", "experiment to run: all|prop|loose|obs|conf|sched|scenario")
	flag.Parse()

	runs := map[string]func(){
		"prop":     expPropagation,
		"loose":    expLoosening,
		"obs":      expObserver,
		"conf":     expConfigurations,
		"sched":    expScheduling,
		"scenario": expScenario,
	}
	if *exp == "all" {
		for _, name := range []string{"scenario", "prop", "loose", "obs", "conf", "sched"} {
			runs[name]()
			fmt.Println()
		}
		return
	}
	f, ok := runs[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	f()
}

// timeIt measures avg wall time of f over n runs.
func timeIt(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

func mustEngine(bp *bpl.Blueprint) *engine.Engine {
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		log.Fatal(err)
	}
	return eng
}

// expScenario replays section 3.4 and prints the narrated checkpoints.
func expScenario() {
	fmt.Println("EXP FIG45 — section 3.4 scenario checkpoints (paper narrative vs measured)")
	sess, _, err := flow.NewEDTCSession(1995)
	if err != nil {
		log.Fatal(err)
	}
	res, err := flow.RunEDTCScenario(sess)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-42s %-12s %s\n", "checkpoint", "paper", "measured")
	rows := [][3]string{
		{"first simulation of CPU.HDL_model.1", "negative", res.FirstSim},
		{"second simulation of CPU.HDL_model.2", "good", res.SecondSim},
		{"model version after the change", "3", fmt.Sprintf("%d", res.HDL3.Version)},
		{"netlist created automatically", "yes", fmt.Sprintf("%v", res.Netlist.Version >= 1)},
		{"stale OIDs after version-3 check-in", "derived set", fmt.Sprintf("%d OIDs", len(res.StaleAfterChange))},
	}
	for _, r := range rows {
		fmt.Printf("  %-42s %-12s %s\n", r[0], r[1], r[2])
	}
}

// expPropagation prints the EXP-PROP table: invalidation wave size and
// time across tree shapes and PROPAGATE filtering.
func expPropagation() {
	fmt.Println("EXP-PROP — selective change propagation over hierarchies")
	fmt.Printf("  %-8s %-8s %-10s %-10s %-14s %s\n",
		"depth", "fanout", "nodes", "filtered", "propagations", "time/ckin")
	for _, cfg := range []struct {
		depth, fanout int
		filtered      bool
	}{
		{2, 2, false}, {4, 2, false}, {6, 2, false},
		{3, 4, false}, {3, 8, false}, {5, 4, false},
		{6, 2, true}, {3, 8, true}, {5, 4, true},
	} {
		propagates := []string{"outofdate"}
		if cfg.filtered {
			propagates = nil
		}
		bp, err := flow.PropagationBlueprint("prop", "node", propagates)
		if err != nil {
			log.Fatal(err)
		}
		eng := mustEngine(bp)
		root, all, err := flow.BuildTree(eng, flow.TreeSpec{View: "node", Depth: cfg.depth, Fanout: cfg.fanout})
		if err != nil {
			log.Fatal(err)
		}
		before := eng.Stats()
		const iters = 50
		d := timeIt(iters, func() {
			if err := eng.PostAndDrain(engine.Event{
				Name: engine.EventCheckin, Dir: bpl.DirDown, Target: root,
			}); err != nil {
				log.Fatal(err)
			}
		})
		after := eng.Stats()
		perOp := float64(after.Propagations-before.Propagations) / iters
		fmt.Printf("  %-8d %-8d %-10d %-10v %-14.0f %v\n",
			cfg.depth, cfg.fanout, len(all), cfg.filtered, perOp, d)
	}
}

// expLoosening prints the EXP-LOOSE table.
func expLoosening() {
	fmt.Println("EXP-LOOSE — policy loosening limits change propagation (tree depth=5 fanout=3)")
	fmt.Printf("  %-10s %-16s %s\n", "policy", "deliveries/ckin", "time/ckin")
	for _, policy := range []string{"strict", "loosened"} {
		var bp *bpl.Blueprint
		var err error
		if policy == "strict" {
			bp, err = flow.PropagationBlueprint("strict", "node", []string{"outofdate"})
		} else {
			bp, err = bpl.Parse(`blueprint loose
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view node
    use_link move propagates outofdate
endview
endblueprint`)
		}
		if err != nil {
			log.Fatal(err)
		}
		eng := mustEngine(bp)
		root, _, err := flow.BuildTree(eng, flow.TreeSpec{View: "node", Depth: 5, Fanout: 3})
		if err != nil {
			log.Fatal(err)
		}
		before := eng.Stats()
		const iters = 50
		d := timeIt(iters, func() {
			if err := eng.PostAndDrain(engine.Event{
				Name: engine.EventCheckin, Dir: bpl.DirDown, Target: root,
			}); err != nil {
				log.Fatal(err)
			}
		})
		after := eng.Stats()
		fmt.Printf("  %-10s %-16.1f %v\n", policy,
			float64(after.Deliveries-before.Deliveries)/iters, d)
	}
}

// expObserver prints the EXP-OBS table: designer-blocking cost per edit.
func expObserver() {
	fmt.Println("EXP-OBS — observer (DAMOCLES) vs activity-driven (NELSIS-style)")
	fmt.Printf("  %-8s %-22s %-22s %-22s %s\n",
		"chain", "observer designer-op", "observer total", "activity designer-op", "activity rebuilds")
	for _, n := range []int{4, 16, 64} {
		views := make([]string, n)
		for i := range views {
			views[i] = fmt.Sprintf("v%02d", i)
		}
		src := "blueprint obs\nview default\n    property uptodate default true\n" +
			"    when ckin do uptodate = true; post outofdate down done\n" +
			"    when outofdate do uptodate = false done\nendview\n"
		for i, v := range views {
			src += "view " + v + "\n"
			if i > 0 {
				src += "    link_from " + views[i-1] + " move propagates outofdate type derived\n"
			}
			src += "endview\n"
		}
		src += "endblueprint\n"
		bp, err := bpl.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		eng := mustEngine(bp)
		keys, err := flow.BuildChain(eng, flow.ChainSpec{Block: "blk", Views: views})
		if err != nil {
			log.Fatal(err)
		}
		head := keys[0]
		ev := engine.Event{Name: engine.EventCheckin, Dir: bpl.DirDown, Target: head}

		const iters = 200
		designer := timeIt(iters, func() {
			if err := eng.Post(ev); err != nil {
				log.Fatal(err)
			}
		})
		// Drain what accumulated, then measure full cycles.
		if err := eng.Drain(); err != nil {
			log.Fatal(err)
		}
		total := timeIt(iters, func() {
			if err := eng.PostAndDrain(ev); err != nil {
				log.Fatal(err)
			}
		})

		m := baseline.NewManager()
		if err := m.AddNode(baseline.NodeID(views[0])); err != nil {
			log.Fatal(err)
		}
		for i := 1; i < n; i++ {
			if err := m.AddNode(baseline.NodeID(views[i]), baseline.NodeID(views[i-1])); err != nil {
				log.Fatal(err)
			}
		}
		tail := baseline.NodeID(views[n-1])
		var rebuilds int
		activity := timeIt(iters, func() {
			if err := m.Touch(baseline.NodeID(views[0])); err != nil {
				log.Fatal(err)
			}
			st, err := m.Demand(tail)
			if err != nil {
				log.Fatal(err)
			}
			rebuilds += st.Rebuilt
		})
		fmt.Printf("  %-8d %-22v %-22v %-22v %.1f/op\n",
			n, designer, total, activity, float64(rebuilds)/iters)
	}
}

// expConfigurations prints the EXP-CONF table.  Besides timing, it shows
// the storage contrast behind the paper's "light weight configuration
// objects": a configuration retains database *addresses*, a materialized
// copy retains full objects with their property maps.
func expConfigurations() {
	fmt.Println("EXP-CONF — lightweight configuration snapshots vs materialization")
	fmt.Printf("  %-8s %-14s %-14s %-22s %s\n",
		"OIDs", "snapshot", "materialize", "snapshot retains", "materialize retains")
	for _, n := range []int{100, 1000, 10000} {
		bp, err := flow.PropagationBlueprint("conf", "node", []string{"outofdate"})
		if err != nil {
			log.Fatal(err)
		}
		eng := mustEngine(bp)
		root, _, err := flow.BuildTree(eng, flow.TreeSpec{View: "node", Depth: 2, Fanout: n - 1})
		if err != nil {
			log.Fatal(err)
		}
		db := eng.DB()
		const iters = 20
		i := 0
		snap := timeIt(iters, func() {
			name := fmt.Sprintf("s%d", i)
			i++
			if _, err := db.SnapshotHierarchy(name, root, meta.FollowUseLinks); err != nil {
				log.Fatal(err)
			}
			if err := db.DeleteConfiguration(name); err != nil {
				log.Fatal(err)
			}
		})
		cfg, err := db.SnapshotHierarchy("mat", root, meta.FollowUseLinks)
		if err != nil {
			log.Fatal(err)
		}
		var resolved int
		mat := timeIt(iters, func() {
			v := db.ReadView()
			r, err := v.Resolve("mat")
			v.Close()
			if err != nil {
				log.Fatal(err)
			}
			resolved = len(r.OIDs)
		})
		// Rough retained-size accounting: a Key is ~2 string headers + an
		// int (~40 B); a materialized OID clone carries the key, a seq,
		// and a property map (conservatively ~200 B + entries).
		snapBytes := len(cfg.OIDs)*40 + len(cfg.Links)*8
		matBytes := resolved * 240
		fmt.Printf("  %-8d %-14v %-14v %-22s %s\n", n, snap, mat,
			fmt.Sprintf("%d addresses (~%d KiB)", len(cfg.OIDs)+len(cfg.Links), snapBytes/1024),
			fmt.Sprintf("%d objects (~%d KiB)", resolved, matBytes/1024))
	}
}

// expScheduling prints the EXP-SCHED comparison.
func expScheduling() {
	fmt.Println("EXP-SCHED — automated vs manual tool invocation (ckin → netlister)")
	const iters = 30
	auto := timeIt(iters, func() {
		sess, _, err := flow.NewEDTCSession(7)
		if err != nil {
			log.Fatal(err)
		}
		hdl, err := sess.CheckinHDL("CPU", 50, 0)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sess.RunHDLSim(hdl); err != nil {
			log.Fatal(err)
		}
		lib, err := sess.InstallLibrary("stdlib")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sess.Synthesize(hdl, lib); err != nil {
			log.Fatal(err)
		}
		if _, err := sess.Eng.DB().Head().Latest("CPU", "netlist"); err != nil {
			log.Fatal("auto netlister did not run")
		}
	})
	manual := timeIt(iters, func() {
		sess, _, err := flow.NewEDTCSession(7)
		if err != nil {
			log.Fatal(err)
		}
		hdl, err := sess.CheckinHDL("CPU", 50, 0)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sess.RunHDLSim(hdl); err != nil {
			log.Fatal(err)
		}
		lib, err := sess.InstallLibrary("stdlib")
		if err != nil {
			log.Fatal(err)
		}
		sch, err := sess.Synthesize(hdl, lib)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sess.RunNetlister(sch); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("  automatic (exec rule):  %v per flow\n", auto)
	fmt.Printf("  manual (designer-run):  %v per flow (plus one extra designer action)\n", manual)
}
