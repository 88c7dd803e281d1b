package repro_test

// Godoc examples: compilable, asserted usage of the public facade, each
// telling one of the paper's stories.

import (
	"fmt"

	repro "repro"
)

// ExampleNewProject stands up a project from the paper's policy, tracks a
// design object through two simulations, and asks the project state what
// still needs work.
func ExampleNewProject() {
	// A project is a meta-database plus a policy plus the run-time engine.
	proj, err := repro.NewProject(repro.EDTCExample)
	if err != nil {
		panic(err)
	}
	// The simulator wrapper posts the designer's reading of a run, as in
	// postEvent hdl_sim down CPU,HDL_model,1 "4 errors".
	simulate := func(k repro.Key, result string) {
		err := proj.Engine.PostAndDrain(repro.Event{
			Name: "hdl_sim", Dir: repro.DirDown, Target: k, Args: []string{result}, User: "yves",
		})
		if err != nil {
			panic(err)
		}
	}

	// The first version of the CPU's HDL model: the BluePrint's template
	// rules attach sim_result with its default value.
	hdl, err := proj.Engine.CreateOID("CPU", "HDL_model", "yves")
	if err != nil {
		panic(err)
	}
	fmt.Println("created:", hdl)
	simulate(hdl, "4 errors")
	v, _, _ := proj.DB.Head().GetProp(hdl, "sim_result")
	fmt.Println("sim_result:", v)

	// The fix is a new version; properties with default inheritance reset.
	hdl2, err := proj.Engine.CreateOID("CPU", "HDL_model", "yves")
	if err != nil {
		panic(err)
	}
	simulate(hdl2, "good")
	fmt.Println()
	fmt.Print(repro.FormatReport(repro.Report(proj.DB, proj.Blueprint)))
	// Output:
	// created: CPU,HDL_model,1
	// sim_result: 4 errors
	//
	// OID                            READY  BLOCKING CONDITIONS
	// CPU,HDL_model,2                yes
}

// ExampleNewProject_versioning shows the version inheritance of Figures 2
// and 3: creating a new version of an OID copies or moves its properties,
// and shifts its move-tagged links onto the new version.
func ExampleNewProject_versioning() {
	proj, err := repro.NewProject(`blueprint versioning_demo
view NetList
endview
view GDSII
    # Figure 2: the DRC property is copied from the previous version.
    property DRC default bad copy
    # Audit trail moves: the old version loses it.
    property audit default none move
    # Figure 3: the derive link from NetList shifts on new versions.
    link_from NetList move propagates OutOfDate type derive_from
endview
endblueprint`)
	if err != nil {
		panic(err)
	}
	eng, db := proj.Engine, proj.DB
	create := func(block, view string) repro.Key {
		k, err := eng.CreateOID(block, view, "demo")
		if err != nil {
			panic(err)
		}
		if err := eng.Drain(); err != nil {
			panic(err)
		}
		return k
	}

	// Figure 3's setup: NetList version 8 linked to GDSII version 5.
	var nl, g5 repro.Key
	for i := 0; i < 8; i++ {
		nl = create("alu", "NetList")
	}
	for i := 0; i < 5; i++ {
		g5 = create("alu", "GDSII")
	}
	linkID, err := eng.CreateLink(repro.DeriveLink, nl, g5)
	if err != nil {
		panic(err)
	}
	if err := db.SetProp(g5, "DRC", "ok"); err != nil {
		panic(err)
	}
	if err := db.SetProp(g5, "audit", "signed-off by marc"); err != nil {
		panic(err)
	}
	head := db.Head()
	l, _ := head.GetLink(linkID)
	fmt.Printf("before: link %d  %v -> %v  (TYPE=%s PROPAGATE=%v)\n",
		l.ID, l.From, l.To, l.Type(), l.Propagates)
	drc, _, _ := head.GetProp(g5, "DRC")
	fmt.Printf("before: %v DRC=%q\n\n", g5, drc)

	// "create new OID": the transition both figures draw.
	g6 := create("alu", "GDSII")
	l, _ = head.GetLink(linkID)
	fmt.Printf("after:  link %d  %v -> %v   (moved, as in Figure 3)\n", l.ID, l.From, l.To)
	drc6, _, _ := head.GetProp(g6, "DRC")
	fmt.Printf("after:  %v DRC=%q          (copied, as in Figure 2)\n", g6, drc6)
	audit6, _, _ := head.GetProp(g6, "audit")
	_, auditOld, _ := head.GetProp(g5, "audit")
	fmt.Printf("after:  %v audit=%q; still on v5: %v (moved)\n", g6, audit6, auditOld)

	fmt.Println("\nversion chains:")
	view := db.ReadView()
	defer view.Close()
	for _, bv := range view.BlockViews() {
		fmt.Printf("  %s.%s: versions %v\n", bv.Block, bv.View, view.Versions(bv.Block, bv.View))
	}
	// Output:
	// before: link 1  alu,NetList,8 -> alu,GDSII,5  (TYPE=derive_from PROPAGATE=[OutOfDate])
	// before: alu,GDSII,5 DRC="ok"
	//
	// after:  link 1  alu,NetList,8 -> alu,GDSII,6   (moved, as in Figure 3)
	// after:  alu,GDSII,6 DRC="ok"          (copied, as in Figure 2)
	// after:  alu,GDSII,6 audit="signed-off by marc"; still on v5: false (moved)
	//
	// version chains:
	//   alu.GDSII: versions [1 2 3 4 5 6]
	//   alu.NetList: versions [1 2 3 4 5 6 7 8]
}

// ExampleParseBlueprint demonstrates policy validation and canonical
// printing.
func ExampleParseBlueprint() {
	bp, err := repro.ParseBlueprint(`blueprint demo
view netlist
    property sim_result default bad
    when nl_sim do sim_result = $arg done
endview
endblueprint`)
	if err != nil {
		panic(err)
	}
	fmt.Println(bp.Name, "views:", bp.ViewNames())
	// Output: demo views: [netlist]
}

// ExampleGap shows the designers' query: what still needs modification
// before the planned state.
func ExampleGap() {
	proj, err := repro.NewProject(repro.EDTCExample)
	if err != nil {
		panic(err)
	}
	if _, err := proj.Engine.CreateOID("CPU", "schematic", "marc"); err != nil {
		panic(err)
	}
	if err := proj.Engine.Drain(); err != nil {
		panic(err)
	}
	for _, st := range repro.Gap(proj.DB, proj.Blueprint) {
		fmt.Println(st.Key, "ready:", st.Ready)
	}
	// Output: CPU,schematic,1 ready: false
}

// ExampleParseKey shows the wire syntax for OID keys used throughout the
// protocol and the postEvent command.
func ExampleParseKey() {
	k, err := repro.ParseKey("reg,verilog,4")
	if err != nil {
		panic(err)
	}
	fmt.Println(k.Block, k.View, k.Version)
	// Output: reg verilog 4
}
