package viz

import (
	"strings"
	"testing"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
)

func edtc(t *testing.T) (*bpl.Blueprint, *engine.Engine) {
	t.Helper()
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(meta.NewDB(), bp)
	if err != nil {
		t.Fatal(err)
	}
	return bp, eng
}

func TestFlowDOTRegeneratesFigure5(t *testing.T) {
	bp, _ := edtc(t)
	dot := FlowDOT(bp)
	// The five tracked views of Figure 5 appear as nodes.
	for _, v := range []string{"HDL_model", "synth_lib", "schematic", "netlist", "layout"} {
		if !strings.Contains(dot, `"`+v+`"`) {
			t.Errorf("view %s missing from DOT:\n%s", v, dot)
		}
	}
	// The default view is policy, not a flow node.
	if strings.Contains(dot, `"default" [`) {
		t.Error("default view drawn as a node")
	}
	// The figure's edges: derived HDL_model->schematic, depend_on
	// synth_lib->schematic, derived schematic->netlist, equivalence
	// schematic->layout, hierarchy self-loop on schematic.
	for _, e := range []string{
		`"HDL_model" -> "schematic"`,
		`"synth_lib" -> "schematic"`,
		`"schematic" -> "netlist"`,
		`"schematic" -> "layout"`,
		`"schematic" -> "schematic"`,
	} {
		if !strings.Contains(dot, e) {
			t.Errorf("edge %s missing from DOT", e)
		}
	}
	// Edge labels carry the relationship types of the figure.
	for _, label := range []string{"derived", "depend_on", "equivalence", "hierarchy"} {
		if !strings.Contains(dot, label) {
			t.Errorf("label %s missing", label)
		}
	}
	if !strings.HasPrefix(dot, "digraph") || !strings.HasSuffix(dot, "}\n") {
		t.Error("not a DOT document")
	}
}

func TestFlowDOTDeterministic(t *testing.T) {
	bp, _ := edtc(t)
	if FlowDOT(bp) != FlowDOT(bp) {
		t.Error("FlowDOT not deterministic")
	}
}

// stateDOTNow renders the current state.
func stateDOTNow(db *meta.DB, bp *bpl.Blueprint) string {
	v := db.ReadView()
	defer v.Close()
	return StateDOT(v, bp)
}

func TestStateDOTColors(t *testing.T) {
	bp, eng := edtc(t)
	sch, err := eng.CreateOID("CPU", "schematic", "v")
	if err != nil {
		t.Fatal(err)
	}
	hdl, err := eng.CreateOID("CPU", "HDL_model", "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateLink(meta.DeriveLink, hdl, sch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	dot := stateDOTNow(eng.DB(), bp)
	if !strings.Contains(dot, "lightcoral") {
		t.Error("blocked schematic not coloured red")
	}
	if !strings.Contains(dot, "lightgrey") {
		t.Error("let-less HDL model not grey")
	}
	if !strings.Contains(dot, `"CPU,HDL_model,1" -> "CPU,schematic,1"`) {
		t.Errorf("link edge missing:\n%s", dot)
	}
	// Satisfy the schematic; it turns green.
	for n, v := range map[string]string{"nl_sim_res": "good", "lvs_res": "is_equiv"} {
		if err := eng.DB().SetProp(sch, n, v); err != nil {
			t.Fatal(err)
		}
	}
	dot = stateDOTNow(eng.DB(), bp)
	if !strings.Contains(dot, "palegreen") {
		t.Error("ready schematic not green")
	}
}

func TestStateDOTOnlyLatestVersions(t *testing.T) {
	bp, eng := edtc(t)
	if _, err := eng.CreateOID("CPU", "HDL_model", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateOID("CPU", "HDL_model", "v"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	dot := stateDOTNow(eng.DB(), bp)
	if strings.Contains(dot, "CPU,HDL_model,1") {
		t.Error("old version drawn")
	}
	if !strings.Contains(dot, "CPU,HDL_model,2") {
		t.Error("latest version missing")
	}
}

// TestStateDOTFromOnePin renders a view pinned before a burst of new
// versions and links: the drawing holds none of the burst, nodes or edges —
// it is the state the project was in at the pin, not nodes of one instant
// next to edges of another.
func TestStateDOTFromOnePin(t *testing.T) {
	bp, eng := edtc(t)
	hdl, err := eng.CreateOID("CPU", "HDL_model", "v")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := eng.CreateOID("CPU", "schematic", "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateLink(meta.DeriveLink, hdl, sch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	db := eng.DB()
	v := db.ReadView()
	defer v.Close()
	before := StateDOT(v, bp)

	for i := 0; i < 8; i++ {
		k, err := db.NewVersion("ALU", "HDL_model")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddLink(meta.DeriveLink, k, sch, "", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.NewVersion("CPU", "schematic"); err != nil { // sch is no longer latest
		t.Fatal(err)
	}

	if after := StateDOT(v, bp); after != before {
		t.Errorf("the pinned drawing changed under writers:\n%s\nvs\n%s", after, before)
	}
	if strings.Contains(before, "ALU") || !strings.Contains(before, `"CPU,HDL_model,1" -> "CPU,schematic,1"`) {
		t.Errorf("pinned drawing:\n%s", before)
	}
	now := stateDOTNow(db, bp)
	if !strings.Contains(now, "ALU,HDL_model,8") || strings.Contains(now, "CPU,schematic,1") {
		t.Errorf("current drawing:\n%s", now)
	}
}
