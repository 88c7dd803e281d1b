package repro

// Benchmark harness: one benchmark family per figure of the paper and per
// quantitative experiment derived from its claims.  The paper itself
// contains no numeric tables — Figures 1-5 are architecture and semantics
// diagrams — so each figure is reproduced as the *behaviour* it depicts,
// and the qualitative claims (selective propagation, policy loosening,
// non-obstructive observer vs activity-driven management, lightweight
// configurations) are measured explicitly.  These benchmarks are the one
// implementation of each experiment; docs/PACKAGES.md maps every experiment
// to its benchmark and metric, and `flowsim -mode scenario` prints the §3.4
// checkpoints beside the paper's claims.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/tools"
	"repro/internal/wire"
	"repro/internal/wrapper"
)

func mustProject(b *testing.B, src string) *Project {
	b.Helper()
	proj, err := NewProject(src)
	if err != nil {
		b.Fatal(err)
	}
	return proj
}

func mustKey(b *testing.B, eng *engine.Engine, block, view string) Key {
	b.Helper()
	k, err := eng.CreateOID(block, view, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
	return k
}

// ---------------------------------------------------------------------------
// FIG1 — BluePrint architecture: event message -> queue -> engine -> meta-db

// BenchmarkFig1EventPipeline measures one design event traversing the
// Figure 1 pipeline in-process: request parse, queue, rule execution,
// continuous assignment, meta-data update.
func BenchmarkFig1EventPipeline(b *testing.B) {
	proj := mustProject(b, EDTCExample)
	srv := server.New(proj.Engine)
	k := mustKey(b, proj.Engine, "CPU", "HDL_model")
	req := wire.Request{Verb: wire.VerbPost, User: "bench",
		Args: []string{"hdl_sim", "down", k.String(), "good"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := srv.Handle(req); !resp.OK {
			b.Fatal(resp.Detail)
		}
	}
}

// BenchmarkFig1EventPipelineTCP measures the same pipeline across a real
// TCP connection — the deployment shape of Figure 1 with the wrapper on
// the network.
func BenchmarkFig1EventPipelineTCP(b *testing.B) {
	proj := mustProject(b, EDTCExample)
	srv := server.New(proj.Engine)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	k := mustKey(b, proj.Engine, "CPU", "HDL_model")
	c, err := server.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PostEvent("hdl_sim", "down", k, "good"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1HierarchyCheckinTCP measures the designer-visible POST
// latency over TCP when each event carries a real propagation cost: a
// check-in at the root of a 63-node hierarchy, whose response arrives after
// the whole invalidation wave has been processed.
func BenchmarkFig1HierarchyCheckinTCP(b *testing.B) {
	bp, err := flow.PropagationBlueprint("f1", "node", []string{"outofdate"})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		b.Fatal(err)
	}
	root, _, err := flow.BuildTree(eng, flow.TreeSpec{View: "node", Depth: 6, Fanout: 2})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := server.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PostEvent(engine.EventCheckin, "down", root); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// FIG2 — template rule: property copy on new version

// BenchmarkFig2TemplateApply measures new-version creation under a view
// with copy-inherited properties (Figure 2's DRC example, widened to
// several properties).
func BenchmarkFig2TemplateApply(b *testing.B) {
	proj := mustProject(b, `blueprint fig2
view GDSII
    property DRC default bad copy
    property density default unknown copy
    property signoff default none copy
endview
endblueprint`)
	if _, err := proj.Engine.CreateOID("alu", "GDSII", "bench"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proj.Engine.CreateOID("alu", "GDSII", "bench"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := proj.Engine.Drain(); err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// FIG3 — derive-link move on new version

// BenchmarkFig3LinkShift measures version creation when move-tagged links
// must shift (Figure 3), with a configurable number of incident links.
func BenchmarkFig3LinkShift(b *testing.B) {
	for _, nLinks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("links=%d", nLinks), func(b *testing.B) {
			proj := mustProject(b, `blueprint fig3
view NetList
endview
view GDSII
    link_from NetList move propagates OutOfDate type derive_from
endview
endblueprint`)
			eng := proj.Engine
			g := mustKey(b, eng, "alu", "GDSII")
			for i := 0; i < nLinks; i++ {
				nl := mustKey(b, eng, fmt.Sprintf("net%d", i), "NetList")
				if _, err := eng.CreateLink(DeriveLink, nl, g); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.CreateOID("alu", "GDSII", "bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := eng.Drain(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// FIG45 — the example design flow of Figures 4 and 5

// BenchmarkFig45Scenario runs the complete section 3.4 designer scenario
// (three model versions, synthesis, auto-netlisting, invalidation wave) per
// iteration.
func BenchmarkFig45Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, _, err := flow.NewEDTCSession(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := flow.RunEDTCScenario(sess); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// EXP-PROP — selective propagation across hierarchies

// BenchmarkPropagationScaling posts one ckin at the root of a
// depth×fanout hierarchy and drains the resulting outofdate wave.  The
// filter dimension controls whether the use links admit the event —
// the PROPAGATE mechanism that makes propagation selective.
func BenchmarkPropagationScaling(b *testing.B) {
	for _, cfg := range []struct {
		depth, fanout int
		filtered      bool
	}{
		{2, 2, false}, {4, 2, false}, {6, 2, false},
		{3, 4, false}, {3, 8, false},
		{6, 2, true}, {3, 8, true},
	} {
		name := fmt.Sprintf("depth=%d/fanout=%d/filtered=%v", cfg.depth, cfg.fanout, cfg.filtered)
		b.Run(name, func(b *testing.B) {
			propagates := []string{"outofdate"}
			if cfg.filtered {
				propagates = nil
			}
			bp, err := flow.PropagationBlueprint("prop", "node", propagates)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := engine.New(meta.NewDB(), bp)
			if err != nil {
				b.Fatal(err)
			}
			root, all, err := flow.BuildTree(eng, flow.TreeSpec{View: "node", Depth: cfg.depth, Fanout: cfg.fanout})
			if err != nil {
				b.Fatal(err)
			}
			ev := Event{Name: engine.EventCheckin, Dir: DirDown, Target: root}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.PostAndDrain(ev); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(all)), "nodes")
			s := eng.Stats()
			b.ReportMetric(float64(s.Propagations)/float64(b.N), "propagations/op")
		})
	}
}

// ---------------------------------------------------------------------------
// EXP-LOOSE — policy loosening limits change propagation

// BenchmarkPolicyLoosening posts the same check-in on the same tree under
// the strict policy (ckin posts outofdate, links propagate it) and under a
// loosened one for an early design phase, swapped in at run time as the
// administrator re-initializes the BluePrint: "the BluePrint can be
// loosened thereby limiting change propagation".  Each arm fails unless
// the story holds: under the strict policy a check-in is delivered to
// every block and the root's ckin (122 deliveries) and leaves every block
// below the root out of date (120), under the loosened one it is its own
// single delivery and invalidates nothing.
func BenchmarkPolicyLoosening(b *testing.B) {
	const looseSrc = `blueprint loose
view default
    property uptodate default true
    when outofdate do uptodate = false done
endview
view node
    use_link move propagates outofdate
endview
endblueprint`
	run := func(b *testing.B, loosen bool) {
		strict, err := flow.PropagationBlueprint("strict", "node", []string{"outofdate"})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(meta.NewDB(), strict)
		if err != nil {
			b.Fatal(err)
		}
		root, all, err := flow.BuildTree(eng, flow.TreeSpec{View: "node", Depth: 5, Fanout: 3})
		if err != nil {
			b.Fatal(err)
		}
		wantDeliveries, wantStale := len(all)+1, len(all)-1
		if loosen {
			loose, err := bpl.Parse(looseSrc)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.SetBlueprint(loose); err != nil {
				b.Fatal(err)
			}
			wantDeliveries, wantStale = 1, 0
		}
		ev := Event{Name: engine.EventCheckin, Dir: DirDown, Target: root}
		before := eng.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.PostAndDrain(ev); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		deliveries := float64(eng.Stats().Deliveries-before.Deliveries) / float64(b.N)
		stale := 0
		head := eng.DB().Head()
		for _, k := range all {
			if v, _, _ := head.GetProp(k, "uptodate"); v == "false" {
				stale++
			}
		}
		if deliveries != float64(wantDeliveries) || stale != wantStale {
			b.Fatalf("%d blocks: %g deliveries per check-in and %d out of date, want %d and %d",
				len(all), deliveries, stale, wantDeliveries, wantStale)
		}
		b.ReportMetric(deliveries, "deliveries/op")
	}
	b.Run("strict", func(b *testing.B) { run(b, false) })
	b.Run("loosened", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------------
// EXP-OBS — non-obstructive observer vs activity-driven baseline

// BenchmarkObserverVsActivityDriven contrasts the *designer-blocking* cost
// of one edit on a linear derivation chain of length n under the two
// architectures of section 4:
//
//   - observer (DAMOCLES): the designer's check-in is one posted event —
//     an O(1) enqueue.  The invalidation wave is processed by the tracking
//     system as an observer, off the designer's critical path (measured
//     separately as observer-total).
//   - activity-driven (NELSIS-style): the edit itself is cheap, but the
//     designer's next activity request synchronously walks the whole input
//     closure and re-runs stale producers while the designer waits.
func BenchmarkObserverVsActivityDriven(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		views := make([]string, n)
		for i := range views {
			views[i] = fmt.Sprintf("v%02d", i)
		}
		buildObserver := func(b *testing.B) (*Project, Key, Key) {
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
			proj := mustProject(b, src)
			keys, err := flow.BuildChain(proj.Engine, flow.ChainSpec{Block: "blk", Views: views})
			if err != nil {
				b.Fatal(err)
			}
			return proj, keys[0], keys[len(keys)-1]
		}
		b.Run(fmt.Sprintf("observer-designer/chain=%d", n), func(b *testing.B) {
			proj, head, tail := buildObserver(b)
			ev := Event{Name: engine.EventCheckin, Dir: DirDown, Target: head}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The designer blocks only for the event post (enqueue)
				// and, before the next tool run, one property read.
				if err := proj.Engine.Post(ev); err != nil {
					b.Fatal(err)
				}
				if _, _, err := proj.DB.Head().GetProp(tail, "uptodate"); err != nil {
					b.Fatal(err)
				}
				// The observer's background processing happens outside
				// the designer-visible window.
				b.StopTimer()
				if err := proj.Engine.Drain(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("observer-total/chain=%d", n), func(b *testing.B) {
			proj, head, _ := buildObserver(b)
			ev := Event{Name: engine.EventCheckin, Dir: DirDown, Target: head}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := proj.Engine.PostAndDrain(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("activity/chain=%d", n), func(b *testing.B) {
			m := baseline.NewManager()
			if err := m.AddNode(baseline.NodeID(views[0])); err != nil {
				b.Fatal(err)
			}
			for i := 1; i < n; i++ {
				if err := m.AddNode(baseline.NodeID(views[i]), baseline.NodeID(views[i-1])); err != nil {
					b.Fatal(err)
				}
			}
			tail := baseline.NodeID(views[n-1])
			head := baseline.NodeID(views[0])
			rebuilds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Touch(head); err != nil {
					b.Fatal(err)
				}
				// The activity request triggers the synchronous transitive
				// freshen the designer waits for.
				st, err := m.Demand(tail)
				if err != nil {
					b.Fatal(err)
				}
				rebuilds += st.Rebuilt
			}
			b.StopTimer()
			b.ReportMetric(float64(rebuilds)/float64(b.N), "rebuilds/op")
		})
	}
}

// BenchmarkEventVsPollingDetection contrasts how the two systems learn
// what is stale after a single edit in a project of n chains: DAMOCLES
// already knows (the event updated the properties; reading them is a
// query), while a polling checker must sweep every node.
func BenchmarkEventVsPollingDetection(b *testing.B) {
	const chains, length = 32, 8
	b.Run("event-driven-query", func(b *testing.B) {
		bp, err := flow.PropagationBlueprint("poll", "node", []string{"outofdate"})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(meta.NewDB(), bp)
		if err != nil {
			b.Fatal(err)
		}
		var heads []Key
		for c := 0; c < chains; c++ {
			var prev Key
			for i := 0; i < length; i++ {
				k, err := eng.CreateOID(fmt.Sprintf("c%02d-%02d", c, i), "node", "bench")
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					heads = append(heads, k)
				} else {
					if _, err := eng.CreateLink(meta.UseLink, prev, k); err != nil {
						b.Fatal(err)
					}
				}
				prev = k
			}
		}
		if err := eng.Drain(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.PostAndDrain(Event{Name: engine.EventCheckin, Dir: DirDown, Target: heads[i%chains]}); err != nil {
				b.Fatal(err)
			}
			// The stale set is already materialized in properties.
			stale := 0
			eng.DB().Head().EachOID(func(o *meta.OID) bool {
				if v, _ := o.Props.Get("uptodate"); v == "false" {
					stale++
				}
				return true
			})
		}
	})
	b.Run("polling-sweep", func(b *testing.B) {
		m := baseline.NewManager()
		var heads []baseline.NodeID
		for c := 0; c < chains; c++ {
			var prev baseline.NodeID
			for i := 0; i < length; i++ {
				id := baseline.NodeID(fmt.Sprintf("c%02d-%02d", c, i))
				var err error
				if i == 0 {
					err = m.AddNode(id)
					heads = append(heads, id)
				} else {
					err = m.AddNode(id, prev)
				}
				if err != nil {
					b.Fatal(err)
				}
				prev = id
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Touch(heads[i%chains]); err != nil {
				b.Fatal(err)
			}
			st := m.PollAll()
			_ = st
		}
	})
}

// ---------------------------------------------------------------------------
// EXP-CONF — lightweight configurations

// BenchmarkConfigurationSnapshot measures hierarchy snapshots (address
// sets) against full materialization, at several design sizes — the
// "light weight configuration objects" claim of section 2.
func BenchmarkConfigurationSnapshot(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		bp, err := flow.PropagationBlueprint("conf", "node", []string{"outofdate"})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(meta.NewDB(), bp)
		if err != nil {
			b.Fatal(err)
		}
		// A wide two-level hierarchy with n-1 leaves.
		root, _, err := flow.BuildTree(eng, flow.TreeSpec{View: "node", Depth: 2, Fanout: n - 1})
		if err != nil {
			b.Fatal(err)
		}
		db := eng.DB()
		b.Run(fmt.Sprintf("snapshot/n=%d", n), func(b *testing.B) {
			var addresses int // what a configuration retains: OID and link addresses
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("s%d-%d", n, i)
				cfg, err := db.SnapshotHierarchy(name, root, meta.FollowUseLinks)
				if err != nil {
					b.Fatal(err)
				}
				addresses = len(cfg.OIDs) + len(cfg.Links)
				if err := db.DeleteConfiguration(name); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(addresses), "addresses")
		})
		b.Run(fmt.Sprintf("materialize/n=%d", n), func(b *testing.B) {
			if _, err := db.SnapshotHierarchy("mat", root, meta.FollowUseLinks); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := db.Head().Resolve("mat")
				if err != nil {
					b.Fatal(err)
				}
				if len(r.OIDs) != n {
					b.Fatalf("resolved %d", len(r.OIDs))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n), "objects") // each a full OID copy
			if err := db.DeleteConfiguration("mat"); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// EXP-QUEUE — FIFO event queue throughput

// BenchmarkEventThroughput pushes batches of mixed events through the
// engine on the EDTC database and reports sustained events/second.
func BenchmarkEventThroughput(b *testing.B) {
	proj := mustProject(b, EDTCExample)
	eng := proj.Engine
	hdl := mustKey(b, eng, "CPU", "HDL_model")
	sch := mustKey(b, eng, "CPU", "schematic")
	nl := mustKey(b, eng, "CPU", "netlist")
	if _, err := eng.CreateLink(DeriveLink, hdl, sch); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.CreateLink(DeriveLink, sch, nl); err != nil {
		b.Fatal(err)
	}
	events := []Event{
		{Name: "hdl_sim", Dir: DirDown, Target: hdl, Args: []string{"good"}},
		{Name: engine.EventCheckin, Dir: DirDown, Target: hdl},
		{Name: "nl_sim", Dir: bpl.DirUp, Target: nl, Args: []string{"good"}},
		{Name: engine.EventCheckin, Dir: DirDown, Target: sch},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Post(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			if err := eng.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// EXP-SCHED — tool scheduling

// BenchmarkToolScheduling measures the automated design flow of section
// 3.3: a model check-in that triggers synthesis-side invalidation plus the
// automatic netlister through the exec rule, versus the same flow on an
// engine with no executor, where the designer runs the netlister.  Both
// arms build the same blocks and must end with exactly one netlist.
func BenchmarkToolScheduling(b *testing.B) {
	// synthesize runs the flow up to the schematic check-in that fires the
	// exec rule.
	synthesize := func(b *testing.B, sess *wrapper.Session) Key {
		hdl, err := sess.CheckinHDL("CPU", 50, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.RunHDLSim(hdl); err != nil {
			b.Fatal(err)
		}
		lib, err := sess.InstallLibrary("stdlib")
		if err != nil {
			b.Fatal(err)
		}
		sch, err := sess.Synthesize(hdl, lib)
		if err != nil {
			b.Fatal(err)
		}
		return sch
	}
	oneNetlist := func(b *testing.B, sess *wrapper.Session) {
		if vs := sess.Eng.DB().Head().Versions("CPU", "netlist"); len(vs) != 1 {
			b.Fatalf("netlist versions %v, want exactly one", vs)
		}
	}
	b.Run("automatic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess, rec, err := flow.NewEDTCSession(uint64(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			// The check-in fires the exec rule; the netlist appears without
			// further designer action.
			synthesize(b, sess)
			oneNetlist(b, sess)
			if scripts := rec.Scripts(); len(scripts) != 1 || scripts[0] != "netlister" {
				b.Fatalf("exec invocations %v, want one netlister", scripts)
			}
		}
	})
	b.Run("manual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			proj := mustProject(b, EDTCExample)
			sess := wrapper.NewSession(proj.Engine, tools.NewSuite(uint64(i+1)), "designer")
			sch := synthesize(b, sess)
			if _, err := sess.RunNetlister(sch); err != nil {
				b.Fatal(err)
			}
			oneNetlist(b, sess)
		}
	})
}

// ---------------------------------------------------------------------------
// EXP-WORKLOAD — sustained project activity

// BenchmarkWorkload runs the seeded random design-team workload and
// reports engine activity per designer step.
func BenchmarkWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, _, err := flow.NewEDTCSession(uint64(i + 77))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (flow.Workload{Seed: int64(i), Blocks: 4, Steps: 100, EditDefectRate: 25}).Run(sess); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlueprintParse measures policy (re)initialization — the paper's
// per-phase re-reading of the ASCII rule file.
func BenchmarkBlueprintParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bpl.Parse(bpl.EDTCExample); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// EXP-PAR — parallel wave drains and batched posts (PR 2)

// buildBenchForest creates trees disjoint use-link trees (depth levels,
// fanout children) with per-tree block prefixes, so no two waves touch a
// common OID, and returns the roots.
func buildBenchForest(b *testing.B, eng *engine.Engine, trees, depth, fanout int) []Key {
	b.Helper()
	roots := make([]Key, 0, trees)
	for tr := 0; tr < trees; tr++ {
		root, err := eng.CreateOID(fmt.Sprintf("t%02d-root", tr), "node", "bench")
		if err != nil {
			b.Fatal(err)
		}
		roots = append(roots, root)
		level := []Key{root}
		id := 0
		for d := 1; d < depth; d++ {
			var next []Key
			for _, parent := range level {
				for f := 0; f < fanout; f++ {
					k, err := eng.CreateOID(fmt.Sprintf("t%02d-n%03d", tr, id), "node", "bench")
					if err != nil {
						b.Fatal(err)
					}
					id++
					if _, err := eng.CreateLink(meta.UseLink, parent, k); err != nil {
						b.Fatal(err)
					}
					next = append(next, k)
				}
			}
			level = next
		}
	}
	if err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
	return roots
}

func parallelDrainEngine(b *testing.B, trees int) (*engine.Engine, []Key) {
	b.Helper()
	bp, err := flow.PropagationBlueprint("par", "node", []string{"outofdate"})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		b.Fatal(err)
	}
	return eng, buildBenchForest(b, eng, trees, 4, 2)
}

// BenchmarkBatchDrain posts one check-in at the root of each of 8 disjoint
// 15-node trees and drains the batch: one caller, eight posted waves and
// the invalidation wave each of them posts.
func BenchmarkBatchDrain(b *testing.B) {
	const trees = 8
	eng, roots := parallelDrainEngine(b, trees)
	ev := Event{Name: engine.EventCheckin, Dir: DirDown}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range roots {
			ev.Target = r
			if err := eng.Post(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Drain(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(trees), "waves/op")
}

// BenchmarkParallelDrain drives check-ins on the same 8 trees from
// b.RunParallel posters, each draining its own: what concurrent callers
// pay for taking turns at the one drain.  Run with -cpu=1,4.
func BenchmarkParallelDrain(b *testing.B) {
	const trees = 8
	b.Run("parallel", func(b *testing.B) {
		eng, roots := parallelDrainEngine(b, trees)
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				r := roots[int(next.Add(1))%len(roots)]
				if err := eng.PostAndDrain(Event{Name: engine.EventCheckin, Dir: DirDown, Target: r}); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Drain(); err != nil {
				b.Fatal(err)
			}
			eng.WaitIdle()
		})
	})
}

// BenchmarkEventThroughputParallel is the multi-core companion of
// BenchmarkEventThroughput: concurrent posters drive check-ins into 16
// disjoint trees, each draining its own.  Compare ops/sec at -cpu=1 and
// -cpu=4: posting, validation and the wait for a turn overlap, the
// deliveries do not.
func BenchmarkEventThroughputParallel(b *testing.B) {
	eng, roots := parallelDrainEngine(b, 16)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := roots[int(next.Add(1))%len(roots)]
			if err := eng.PostAndDrain(Event{Name: engine.EventCheckin, Dir: DirDown, Target: r}); err != nil {
				b.Fatal(err)
			}
		}
		// Settle the backlog inside the timed region so ops/sec reflects
		// fully processed events, not just accepted ones.
		if err := eng.Drain(); err != nil {
			b.Fatal(err)
		}
		eng.WaitIdle()
	})
}

// BenchmarkBatchPost contrasts N single POST round-trips with one BATCH
// carrying N events (one parse, one drain, one response), plus a
// b.RunParallel variant hammering BATCH from concurrent clients.
func BenchmarkBatchPost(b *testing.B) {
	const batch = 64
	setup := func(b *testing.B) (*server.Server, []wire.Request, wire.Request) {
		proj := mustProject(b, EDTCExample)
		srv := server.New(proj.Engine)
		var singles []wire.Request
		var items []string
		for i := 0; i < batch; i++ {
			k := mustKey(b, proj.Engine, fmt.Sprintf("blk%02d", i%16), "HDL_model")
			singles = append(singles, wire.Request{Verb: wire.VerbPost, User: "bench",
				Args: []string{"hdl_sim", "down", k.String(), "good"}})
			items = append(items, wire.BatchItem{Event: "hdl_sim", Dir: "down",
				OID: k.String(), Args: []string{"good"}}.Encode())
		}
		return srv, singles, wire.Request{Verb: wire.VerbBatch, User: "bench", Args: items}
	}
	b.Run("single", func(b *testing.B) {
		srv, singles, _ := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, req := range singles {
				if resp := srv.Handle(req); !resp.OK {
					b.Fatal(resp.Detail)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(batch, "events/op")
	})
	b.Run("batch", func(b *testing.B) {
		srv, _, breq := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := srv.Handle(breq); !resp.OK {
				b.Fatal(resp.Detail)
			}
		}
		b.StopTimer()
		b.ReportMetric(batch, "events/op")
	})
	b.Run("parallel", func(b *testing.B) {
		srv, _, breq := setup(b)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if resp := srv.Handle(breq); !resp.OK {
					b.Fatal(resp.Detail)
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(batch, "events/op")
	})

	// The round-trip savings BATCH exists for: over TCP, one batched
	// request replaces `batch` request/response cycles.
	tcp := func(b *testing.B) (*server.Client, []meta.Key) {
		proj := mustProject(b, EDTCExample)
		srv := server.New(proj.Engine)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		var keys []meta.Key
		for i := 0; i < batch; i++ {
			keys = append(keys, mustKey(b, proj.Engine, fmt.Sprintf("blk%02d", i%16), "HDL_model"))
		}
		c, err := server.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c, keys
	}
	b.Run("tcp-single", func(b *testing.B) {
		c, keys := tcp(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if err := c.PostEvent("hdl_sim", "down", k, "good"); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(batch, "events/op")
	})
	b.Run("tcp-batch", func(b *testing.B) {
		c, keys := tcp(b)
		items := make([]wire.BatchItem, len(keys))
		for i, k := range keys {
			items[i] = wire.BatchItem{Event: "hdl_sim", Dir: "down", OID: k.String(), Args: []string{"good"}}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n, err := c.PostBatch(items); err != nil || n != batch {
				b.Fatal(n, err)
			}
		}
		b.StopTimer()
		b.ReportMetric(batch, "events/op")
	})
}
