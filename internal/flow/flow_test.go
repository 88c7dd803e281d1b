package flow

import (
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
)

func propEngine(t *testing.T, propagates []string) *engine.Engine {
	t.Helper()
	bp, err := PropagationBlueprint("test", "node", propagates)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTreeSpecSize(t *testing.T) {
	tests := []struct {
		depth, fanout, want int
	}{
		{1, 2, 1}, {2, 2, 3}, {3, 2, 7}, {2, 3, 4}, {3, 3, 13}, {4, 2, 15},
	}
	for _, tt := range tests {
		got := TreeSpec{View: "v", Depth: tt.depth, Fanout: tt.fanout}.Size()
		if got != tt.want {
			t.Errorf("Size(d=%d,f=%d) = %d, want %d", tt.depth, tt.fanout, got, tt.want)
		}
	}
}

func TestBuildTreeShape(t *testing.T) {
	e := propEngine(t, []string{"outofdate"})
	spec := TreeSpec{View: "node", Depth: 3, Fanout: 2}
	root, all, err := BuildTree(e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != spec.Size() {
		t.Errorf("nodes = %d, want %d", len(all), spec.Size())
	}
	// Root has Fanout children.
	if got := e.DB().Head().LinksOf(root); len(got) != 2 {
		t.Errorf("root links = %d", len(got))
	}
	// All nodes reachable from root.
	reach := e.DB().Head().Reachable(root, meta.FollowUseLinks)
	if len(reach) != spec.Size() {
		t.Errorf("reachable = %d", len(reach))
	}
}

func TestBuildTreePropagation(t *testing.T) {
	e := propEngine(t, []string{"outofdate"})
	root, all, err := BuildTree(e, TreeSpec{View: "node", Depth: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(engine.Event{Name: engine.EventCheckin, Dir: bpl.DirDown, Target: root}); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, k := range all {
		if v, _, _ := e.DB().Head().GetProp(k, "uptodate"); v == "false" {
			stale++
		}
	}
	// Everything below the root is invalidated; the root itself was
	// checked in.
	if stale != len(all)-1 {
		t.Errorf("stale = %d, want %d", stale, len(all)-1)
	}
}

func TestBuildTreeFilteredPropagation(t *testing.T) {
	// Links that do not propagate outofdate stop the wave at the root.
	e := propEngine(t, nil)
	root, all, err := BuildTree(e, TreeSpec{View: "node", Depth: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(engine.Event{Name: engine.EventCheckin, Dir: bpl.DirDown, Target: root}); err != nil {
		t.Fatal(err)
	}
	for _, k := range all {
		if v, _, _ := e.DB().Head().GetProp(k, "uptodate"); v == "false" {
			t.Errorf("%v invalidated through a filtering link", k)
		}
	}
}

func TestBuildTreeBadSpec(t *testing.T) {
	e := propEngine(t, nil)
	if _, _, err := BuildTree(e, TreeSpec{View: "node", Depth: 0, Fanout: 2}); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, _, err := BuildTree(e, TreeSpec{View: "node", Depth: 2, Fanout: 0}); err == nil {
		t.Error("fanout 0 accepted")
	}
}

func TestBuildChain(t *testing.T) {
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := BuildChain(e, ChainSpec{Block: "CPU", Views: []string{"HDL_model", "schematic", "netlist"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	// The HDL_model -> schematic link got the derived template.
	links := e.DB().Head().LinksOf(keys[0])
	if len(links) != 1 || links[0].Type() != "derived" {
		t.Errorf("chain link = %+v", links)
	}
	if _, err := BuildChain(e, ChainSpec{Block: "x"}); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestRunEDTCScenario(t *testing.T) {
	sess, rec, err := NewEDTCSession(1995)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEDTCScenario(sess)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstSim != "4 errors" {
		t.Errorf("first sim = %q", res.FirstSim)
	}
	if res.SecondSim != "good" {
		t.Errorf("second sim = %q", res.SecondSim)
	}
	if res.HDL3.Version != 3 {
		t.Errorf("hdl3 = %v", res.HDL3)
	}
	// The outofdate wave after the change invalidated the CPU schematic,
	// its REG component, and the netlist.
	stale := map[meta.Key]bool{}
	for _, k := range res.StaleAfterChange {
		stale[k] = true
	}
	for _, k := range []meta.Key{res.CPUSchematic, res.REGSchematic, res.Netlist} {
		if !stale[k] {
			t.Errorf("%v not invalidated; stale set = %v", k, res.StaleAfterChange)
		}
	}
	if stale[res.HDL3] || stale[res.Lib] {
		t.Errorf("upstream data invalidated: %v", res.StaleAfterChange)
	}
	// The auto-netlister ran at least once.
	found := false
	for _, inv := range rec.Invocations() {
		if inv.Script == "netlister" {
			found = true
		}
	}
	if !found {
		t.Error("netlister never executed")
	}
}

func TestWorkloadRunDeterministic(t *testing.T) {
	run := func() WorkloadStats {
		sess, _, err := NewEDTCSession(7)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Workload{Seed: 42, Blocks: 3, Steps: 120, EditDefectRate: 30}.Run(sess)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("workload not deterministic:\n%v\n%v", a, b)
	}
	total := a.Edits + a.Sims + a.Syntheses + a.Netlists + a.NetlistSims + a.Placements + a.DRCRuns
	if total == 0 {
		t.Error("workload did nothing")
	}
}

func TestWorkloadValidation(t *testing.T) {
	sess, _, err := NewEDTCSession(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Workload{Blocks: 0, Steps: 5}).Run(sess); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := (Workload{Blocks: 1, Steps: 0}).Run(sess); err == nil {
		t.Error("zero steps accepted")
	}
}
