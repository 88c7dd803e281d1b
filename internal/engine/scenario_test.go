package engine

import (
	"strings"
	"testing"

	"repro/internal/bpl"
	"repro/internal/exec"
	"repro/internal/meta"
)

// TestEDTCScenario replays the designer scenario narrated in section 3.4 of
// the paper against the paper's own EDTC_example BluePrint and asserts every
// state the narrative mentions.
func TestEDTCScenario(t *testing.T) {
	reg := exec.NewRegistry()
	rec := &exec.Recorder{}
	e := newTestEngine(t, bpl.EDTCExample, WithExecutor(exec.Tee{reg, rec}))
	db := e.DB()

	// The netlister wrapper: invoked automatically on schematic check-in,
	// it creates the next netlist version and links it to the schematic.
	reg.Register("netlister", func(inv exec.Invocation) error {
		schKey, err := meta.ParseKey(inv.Args[0])
		if err != nil {
			return err
		}
		nl, err := e.CreateOID(schKey.Block, "netlist", inv.Env("user"))
		if err != nil {
			return err
		}
		_, err = e.CreateLink(meta.DeriveLink, schKey, nl)
		return err
	})

	// "A group of designers starts out by writing an HDL model for their
	// new design. The top block name is CPU. So they create an OID
	// <CPU.HDL_model.1>."
	hdl1 := mustCreate(t, e, "CPU", "HDL_model")
	if hdl1 != (meta.Key{Block: "CPU", View: "HDL_model", Version: 1}) {
		t.Fatalf("hdl1 = %v", hdl1)
	}
	// "This property has a value of bad each time a new OID is created."
	if got := prop(t, e, hdl1, "sim_result"); got != "bad" {
		t.Errorf("initial sim_result = %q, want bad", got)
	}

	// "They then simulate the model and get a negative result."
	if err := e.PostAndDrain(Event{Name: "hdl_sim", Dir: bpl.DirDown, Target: hdl1, Args: []string{"4 errors"}}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, hdl1, "sim_result"); got != "4 errors" {
		t.Errorf("sim_result = %q, want \"4 errors\"", got)
	}

	// "The designers then modify their model and save it as a new version
	// <CPU.HDL_model.2>. They run the simulation again and this time get a
	// good result."
	hdl2 := mustCreate(t, e, "CPU", "HDL_model")
	if hdl2.Version != 2 {
		t.Fatalf("hdl2 = %v", hdl2)
	}
	if got := prop(t, e, hdl2, "sim_result"); got != "bad" {
		t.Errorf("new version sim_result = %q, want default bad", got)
	}
	if err := e.PostAndDrain(Event{Name: "hdl_sim", Dir: bpl.DirDown, Target: hdl2, Args: []string{"good"}}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, hdl2, "sim_result"); got != "good" {
		t.Errorf("sim_result = %q, want good", got)
	}

	// A synthesis library is installed; schematics depend on it.
	lib := mustCreate(t, e, "stdlib", "synth_lib")

	// "They then synthesize the design from their model. This creates OIDs
	// <CPU.schematic.1> and <REG.schematic.1>. The second OID is part of
	// the hierarchy of the CPU schematic.  It has a use link which points
	// to it from the CPU schematic."  The synthesis wrapper also records
	// the derivation from the HDL model and the library dependency, then
	// checks the schematic in.
	cpuSch := mustCreate(t, e, "CPU", "schematic")
	regSch := mustCreate(t, e, "REG", "schematic")
	if _, err := e.CreateLink(meta.UseLink, cpuSch, regSch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateLink(meta.DeriveLink, hdl2, cpuSch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateLink(meta.DeriveLink, lib, cpuSch); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: cpuSch, User: "marc"}); err != nil {
		t.Fatal(err)
	}
	// The CPU check-in invalidated its hierarchical component via the use
	// link; the synthesis wrapper checks the component in as well.
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: regSch, User: "marc"}); err != nil {
		t.Fatal(err)
	}

	// "The BluePrint in this example has been set up to automatically
	// create a new netlist each time a new schematic is checked in."
	nl, err := db.Head().Latest("CPU", "netlist")
	if err != nil {
		t.Fatalf("netlister did not run: %v", err)
	}
	if nl.Version != 1 {
		t.Errorf("netlist version = %d", nl.Version)
	}
	if !containsScript(rec.Scripts(), "netlister") {
		t.Errorf("netlister not invoked: %v", rec.Scripts())
	}
	// The ckin rule also recorded who touched the schematic.
	if got := prop(t, e, cpuSch, "lvs_res"); got != "CPU,schematic,1 changed by marc" {
		t.Errorf("lvs_res = %q", got)
	}

	// "Now the designers look at their CPU schematic and decide to change
	// part of the design so they modify their HDL model thereby creating a
	// new OID <CPU.HDL_model.3>."  The move-tagged derived link shifts
	// from version 2 to version 3.
	hdl3 := mustCreate(t, e, "CPU", "HDL_model")
	if hdl3.Version != 3 {
		t.Fatalf("hdl3 = %v", hdl3)
	}
	if got := linksAt(db, hdl3, true); len(got) != 1 || got[0].To != cpuSch {
		t.Fatalf("derived link did not shift to hdl3: %v", got)
	}
	if got := linksAt(db, hdl2, true); len(got) != 0 {
		t.Errorf("hdl2 still has outgoing links: %v", got)
	}

	// Everything is up to date before the check-in.
	for _, k := range []meta.Key{cpuSch, regSch} {
		if got := prop(t, e, k, "uptodate"); got != "true" {
			t.Errorf("%v uptodate = %q before ckin", k, got)
		}
	}

	// "when they check in their new model <CPU.HDL_model.3>, the ckin
	// event is used to post an outofdate event to all the derived views...
	// the CPU schematic and all of its hierarchical components receive the
	// event."
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirDown, Target: hdl3, User: "yves"}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, hdl3, "uptodate"); got != "true" {
		t.Errorf("hdl3 uptodate = %q (the checked-in OID itself stays current)", got)
	}
	if got := prop(t, e, cpuSch, "uptodate"); got != "false" {
		t.Errorf("CPU schematic uptodate = %q, want false", got)
	}
	if got := prop(t, e, regSch, "uptodate"); got != "false" {
		t.Errorf("REG schematic uptodate = %q, want false (hierarchy)", got)
	}
	// The netlist is downstream of the schematic via a derived link that
	// propagates outofdate, so it is invalidated too.
	if got := prop(t, e, nl, "uptodate"); got != "false" {
		t.Errorf("netlist uptodate = %q, want false", got)
	}
	// The upstream library is untouched.
	if got := prop(t, e, lib, "uptodate"); got != "true" {
		t.Errorf("synth_lib uptodate = %q", got)
	}

	// The schematic state summary reflects the failure reasons.
	if got := prop(t, e, cpuSch, "state"); got != "false" {
		t.Errorf("schematic state = %q", got)
	}
}

// TestEDTCLayoutLVSFlow exercises the layout view rules of the EDTC
// blueprint: drc/lvs result events and the lvs re-posting on layout
// check-in.
func TestEDTCLayoutLVSFlow(t *testing.T) {
	e := newTestEngine(t, bpl.EDTCExample)
	sch := mustCreate(t, e, "CPU", "schematic")
	lay := mustCreate(t, e, "CPU", "layout")
	if _, err := e.CreateLink(meta.DeriveLink, sch, lay); err != nil {
		t.Fatal(err)
	}
	// Initial layout state is false: bad drc, not_equiv lvs.
	if got := prop(t, e, lay, "state"); got != "false" {
		t.Errorf("initial layout state = %q", got)
	}

	// DRC and LVS pass.
	if err := e.PostAndDrain(Event{Name: "drc", Dir: bpl.DirDown, Target: lay, Args: []string{"good"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.PostAndDrain(Event{Name: "lvs", Dir: bpl.DirDown, Target: lay, Args: []string{"is_equiv"}}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, lay, "drc_result"); got != "good" {
		t.Errorf("drc_result = %q", got)
	}
	if got := prop(t, e, lay, "lvs_result"); got != "is_equiv" {
		t.Errorf("lvs_result = %q", got)
	}
	if got := prop(t, e, lay, "state"); got != "true" {
		t.Errorf("layout state = %q, want true", got)
	}

	// Layout check-in resets its lvs_result and posts lvs up toward the
	// schematic through the equivalence link.
	if err := e.PostAndDrain(Event{Name: EventCheckin, Dir: bpl.DirUp, Target: lay, User: "salma"}); err != nil {
		t.Fatal(err)
	}
	if got := prop(t, e, lay, "lvs_result"); got != "CPU,layout,1 changed by salma" {
		t.Errorf("lvs_result after ckin = %q", got)
	}
	if got := prop(t, e, lay, "state"); got != "false" {
		t.Errorf("layout state after ckin = %q, want false", got)
	}
}

// TestEDTCSchematicStateExpression pins down the three-way conjunction of
// the schematic's continuous assignment.
func TestEDTCSchematicStateExpression(t *testing.T) {
	e := newTestEngine(t, bpl.EDTCExample)
	sch := mustCreate(t, e, "CPU", "schematic")
	set := func(name, v string) {
		t.Helper()
		if err := e.DB().SetProp(sch, name, v); err != nil {
			t.Fatal(err)
		}
	}
	eval := func() string {
		t.Helper()
		// Any event on the OID re-evaluates lets; use a no-rule event.
		if err := e.PostAndDrain(Event{Name: "poke", Dir: bpl.DirDown, Target: sch}); err != nil {
			t.Fatal(err)
		}
		return prop(t, e, sch, "state")
	}
	if got := eval(); got != "false" {
		t.Errorf("state = %q at defaults", got)
	}
	set("nl_sim_res", "good")
	set("lvs_res", "is_equiv")
	if got := eval(); got != "true" {
		t.Errorf("state = %q with all conditions met", got)
	}
	set("uptodate", "false")
	if got := eval(); got != "false" {
		t.Errorf("state = %q with stale data", got)
	}
}

func containsScript(scripts []string, name string) bool {
	for _, s := range scripts {
		if strings.HasPrefix(s, name) {
			return true
		}
	}
	return false
}
